"""Unit tests for the condition expression DSL and degree inference."""

import pytest

from repro.core.expressions import (
    Abs,
    BoolConst,
    Compare,
    Const,
    FieldRef,
    H,
    Neg,
)
from repro.core.update import Update
from tests.conftest import snapshot_of


def history_with(values_by_var: dict[str, list[tuple[int, float]]], degrees=None):
    """H after receiving the (seqno, value) lists given per variable."""
    degrees = degrees or {var: len(vals) for var, vals in values_by_var.items()}
    return snapshot_of(
        degrees,
        [
            Update(var, seqno, value)
            for var, vals in values_by_var.items()
            for seqno, value in vals
        ],
    )


class TestHNamespace:
    def test_attribute_access(self):
        ref = H.x[0].value
        assert isinstance(ref, FieldRef)
        assert ref.varname == "x"
        assert ref.index == 0
        assert ref.fieldname == "value"

    def test_item_access_for_awkward_names(self):
        ref = H["stock price"][0].seqno
        assert ref.varname == "stock price"
        assert ref.fieldname == "seqno"

    def test_negative_indices(self):
        assert H.x[-2].value.index == -2

    def test_positive_index_rejected(self):
        with pytest.raises(ValueError):
            H.x[1]

    def test_private_attribute_not_a_variable(self):
        with pytest.raises(AttributeError):
            H._secret


class TestDegreeInference:
    def test_c1_is_degree_one(self):
        assert (H.x[0].value > 3000).degrees() == {"x": 1}

    def test_c2_is_degree_two(self):
        expr = H.x[0].value - H.x[-1].value > 200
        assert expr.degrees() == {"x": 2}

    def test_sparse_reference_rule(self):
        # "a condition that uses only Hx[0] and Hx[-2] is of degree 3" (§2)
        expr = (H.x[0].value > 0) & (H.x[-2].value > 0)
        assert expr.degrees() == {"x": 3}

    def test_multi_variable_degrees(self):
        expr = (H.x[0].value - H.x[-1].value > 1) & (H.y[0].value > 2)
        assert expr.degrees() == {"x": 2, "y": 1}

    def test_degrees_through_all_node_types(self):
        expr = ~((abs(-H.x[-3].value) + 1) * 2 / 3 >= H.y[0].seqno)
        assert expr.degrees() == {"x": 4, "y": 1}

    def test_constant_has_no_degrees(self):
        assert Const(5).degrees() == {}
        assert BoolConst(True).degrees() == {}


class TestEvaluation:
    def test_c1_true_false(self):
        expr = H.x[0].value > 3000
        assert expr.evaluate(history_with({"x": [(1, 3100.0)]}))
        assert not expr.evaluate(history_with({"x": [(1, 2900.0)]}))

    def test_c2_delta(self):
        expr = H.x[0].value - H.x[-1].value > 200
        histories = history_with({"x": [(1, 1000.0), (2, 1300.0)]})
        assert expr.evaluate(histories)

    def test_seqno_guard(self):
        expr = H.x[0].seqno == H.x[-1].seqno + 1
        assert expr.evaluate(history_with({"x": [(1, 0.0), (2, 0.0)]}))
        assert not expr.evaluate(history_with({"x": [(1, 0.0), (3, 0.0)]}))

    def test_arithmetic_operators(self):
        histories = history_with({"x": [(1, 10.0)]})
        assert (H.x[0].value + 5 == 15).evaluate(histories)
        assert (H.x[0].value - 4 == 6).evaluate(histories)
        assert (H.x[0].value * 2 == 20).evaluate(histories)
        assert (H.x[0].value / 4 == 2.5).evaluate(histories)

    def test_reflected_operators(self):
        histories = history_with({"x": [(1, 10.0)]})
        assert (5 + H.x[0].value == 15).evaluate(histories)
        assert (25 - H.x[0].value == 15).evaluate(histories)
        assert (3 * H.x[0].value == 30).evaluate(histories)
        assert (100 / H.x[0].value == 10).evaluate(histories)

    def test_abs_and_neg(self):
        histories = history_with({"x": [(1, 10.0)], "y": [(1, 150.0)]})
        assert isinstance(abs(H.x[0].value - H.y[0].value), Abs)
        assert (abs(H.x[0].value - H.y[0].value) == 140).evaluate(histories)
        assert isinstance(-H.x[0].value, Neg)
        assert (-H.x[0].value == -10).evaluate(histories)

    def test_comparison_operators(self):
        histories = history_with({"x": [(1, 10.0)]})
        assert (H.x[0].value >= 10).evaluate(histories)
        assert (H.x[0].value <= 10).evaluate(histories)
        assert (H.x[0].value < 11).evaluate(histories)
        assert (H.x[0].value != 9).evaluate(histories)

    def test_boolean_combinators(self):
        histories = history_with({"x": [(1, 10.0)]})
        true = H.x[0].value > 0
        false = H.x[0].value > 100
        assert (true & true).evaluate(histories)
        assert not (true & false).evaluate(histories)
        assert (true | false).evaluate(histories)
        assert not (false | false).evaluate(histories)
        assert (~false).evaluate(histories)

    def test_evaluates_on_snapshot(self):
        expr = H.x[0].value - H.x[-1].value > 200
        histories = history_with({"x": [(1, 1000.0), (2, 1300.0)]})
        assert expr.evaluate(histories)

    def test_snapshot_too_shallow_raises(self):
        expr = H.x[-1].value > 0
        histories = history_with({"x": [(1, 1.0)]})
        with pytest.raises(LookupError):
            expr.evaluate(histories)


class TestConstruction:
    def test_lifting_rejects_strings(self):
        with pytest.raises(TypeError):
            H.x[0].value + "oops"  # type: ignore[operator]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            FieldRef("x", 0, "timestamp")

    def test_compare_requires_known_operator(self):
        with pytest.raises(ValueError):
            Compare("~=", Const(1), Const(2))

    def test_repr_is_readable(self):
        expr = H.x[0].value - H.x[-1].value > 200
        assert "Hx[0].value" in repr(expr)
        assert "Hx[-1].value" in repr(expr)
        assert ">" in repr(expr)
