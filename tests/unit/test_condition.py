"""Unit tests for conditions: classification, canonical instances, guards."""

import pickle

import pytest

from repro.core.condition import (
    ExpressionCondition,
    PredicateCondition,
    always_true,
    c1,
    c2,
    c3,
    cm,
    compile_condition,
    conservative_guard,
    sharp_price_drop,
)
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.history import HistorySnapshot
from repro.core.reference import apply_T
from repro.core.update import Update, parse_trace
from repro.props.completeness import check_completeness_multi
from tests.conftest import keys_of, snapshot_of


def feed(condition, pairs, var="x"):
    """Evaluate a condition on H after (seqno, value) updates arrived."""
    return condition.evaluate(
        snapshot_of(condition.degrees, [Update(var, s, v) for s, v in pairs])
    )


class TestClassification:
    def test_c1_non_historical(self):
        cond = c1()
        assert cond.degree("x") == 1
        assert not cond.is_historical
        assert cond.is_conservative  # trivially

    def test_c2_historical_aggressive(self):
        cond = c2()
        assert cond.degree("x") == 2
        assert cond.is_historical
        assert not cond.is_conservative

    def test_c3_historical_conservative(self):
        cond = c3()
        assert cond.is_historical
        assert cond.is_conservative

    def test_cm_two_variables_degree_one(self):
        cond = cm()
        assert cond.variables == ("x", "y")
        assert cond.degree("x") == 1
        assert cond.degree("y") == 1
        assert not cond.is_historical

    def test_variables_sorted(self):
        cond = ExpressionCondition("c", (H.b[0].value > 0) & (H.a[0].value > 0))
        assert cond.variables == ("a", "b")
        assert cond.variables is cond.variables  # sorted once, at construction


class TestEvaluation:
    def test_c1_threshold(self):
        cond = c1(threshold=3000)
        assert feed(cond, [(1, 3100.0)])
        assert not feed(cond, [(1, 3000.0)])  # strict inequality

    def test_c2_triggers_across_gap(self):
        # Aggressive: 720 - 400 > 200 triggers even though update 2 missing.
        cond = c2()
        assert feed(cond, [(1, 400.0), (3, 720.0)])

    def test_c3_refuses_across_gap(self):
        cond = c3()
        assert not feed(cond, [(1, 400.0), (3, 720.0)])

    def test_c3_triggers_when_consecutive(self):
        cond = c3()
        assert feed(cond, [(1, 400.0), (2, 700.0)])

    def test_cm_absolute_difference(self):
        cond = cm(gap=100)
        arrived = [Update("x", 1, 1000.0), Update("y", 1, 1150.0)]
        assert cond.evaluate(snapshot_of(cond.degrees, arrived))
        arrived.append(Update("y", 2, 1050.0))
        assert not cond.evaluate(snapshot_of(cond.degrees, arrived))

    def test_sharp_price_drop_aggressive(self):
        cond = sharp_price_drop(0.2)
        # 100 -> 52 across a lost quote: aggressive variant still triggers.
        assert feed(cond, [(1, 100.0), (3, 52.0)], var="price")

    def test_sharp_price_drop_conservative(self):
        cond = sharp_price_drop(0.2, conservative=True)
        assert not feed(cond, [(1, 100.0), (3, 52.0)], var="price")
        assert feed(cond, [(1, 100.0), (2, 50.0)], var="price")

    def test_sharp_price_drop_validates_fraction(self):
        with pytest.raises(ValueError):
            sharp_price_drop(0.0)
        with pytest.raises(ValueError):
            sharp_price_drop(1.0)

    def test_always_true(self):
        assert feed(always_true(), [(1, 0.0)])


class TestConservativeWrapping:
    def test_as_conservative_adds_gap_guard(self):
        aggressive = c2()
        conservative = aggressive.as_conservative()
        assert conservative.is_conservative
        assert not feed(conservative, [(1, 400.0), (3, 720.0)])
        assert feed(conservative, [(1, 400.0), (2, 700.0)])

    def test_as_conservative_names(self):
        assert c2().as_conservative().name == "c2_conservative"
        assert c2().as_conservative("mine").name == "mine"

    def test_conservative_flag_on_expression_condition(self):
        cond = ExpressionCondition(
            "g", H.x[0].value - H.x[-1].value > 0, conservative=True
        )
        assert not feed(cond, [(1, 0.0), (3, 10.0)])
        assert feed(cond, [(1, 0.0), (2, 10.0)])

    def test_conservative_guard_expression(self):
        guard = conservative_guard("x")
        cond = ExpressionCondition("g", (H.x[0].value > 0) & guard)
        assert feed(cond, [(1, 1.0), (2, 2.0)])
        assert not feed(cond, [(1, 1.0), (3, 2.0)])

    def test_conservative_guard_requires_variables(self):
        with pytest.raises(ValueError):
            conservative_guard()


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ExpressionCondition("", H.x[0].value > 0)

    def test_non_boolean_expression_rejected(self):
        with pytest.raises(TypeError):
            ExpressionCondition("c", H.x[0].value + 1)  # type: ignore[arg-type]

    def test_predicate_condition_requires_degrees(self):
        with pytest.raises(ValueError):
            PredicateCondition("c", {}, lambda h: True)

    def test_predicate_condition_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            PredicateCondition("c", {"x": 0}, lambda h: True)

    def test_infinite_degree_excluded(self):
        # The paper excludes conditions of infinite degree; our proxy is a
        # hard cap that no legitimate condition approaches.
        with pytest.raises(ValueError):
            PredicateCondition("c", {"x": 10**9}, lambda h: True)


class TestPredicateCondition:
    def test_predicate_evaluation(self):
        cond = PredicateCondition(
            "even", {"x": 1}, lambda h: h["x"][0].seqno % 2 == 0
        )
        assert feed(cond, [(2, 0.0)])
        assert not feed(cond, [(1, 0.0)])

    def test_predicate_with_conservative_guard(self):
        cond = PredicateCondition(
            "p", {"x": 2}, lambda h: True, conservative=True
        )
        assert not feed(cond, [(1, 0.0), (3, 0.0)])
        assert feed(cond, [(1, 0.0), (2, 0.0)])


    def test_predicate_sees_one_index_convention_everywhere(self):
        """``h[var]`` is the most-recent-first tuple in the live evaluator,
        in ``apply_T`` and in the checkers alike: ``h["x"][-1]`` is the
        oldest retained update (the paper's ``Hx[-2]`` at degree 3)."""
        seen = []

        def oldest_is_first_sent(h):
            seen.append(h["x"][-1].seqno)
            return h["x"][-1].seqno == 1

        cond = PredicateCondition("p", {"x": 3}, oldest_is_first_sent)
        stream = parse_trace("1x(0), 2x(0), 3x(0), 4x(0)")
        live = ConditionEvaluator(cond).ingest_all(stream)
        assert [a.histories.seqnos("x") for a in live] == [(3, 2, 1)]
        assert apply_T(cond, stream) == live
        assert cond.evaluate(live[0].histories)
        assert check_completeness_multi(keys_of(live), cond, {"x": stream}).complete
        assert set(seen) == {1, 2}  # the windows ⟨3,2,1⟩ and ⟨4,3,2⟩ only


class TestCompileCondition:
    """``compile_condition``: expression AST → plain closure over the
    per-variable history buffers (most recent first)."""

    @staticmethod
    def risen(conservative=True, delta=120.0):
        return ExpressionCondition(
            "risen", (H.x[0].value - H.x[-1].value > delta), conservative
        )

    def test_equal_conditions_share_one_closure(self):
        condition = self.risen()
        closure = compile_condition(condition)
        assert closure is not None
        assert compile_condition(condition) is closure
        # A value-equal condition object reuses the compiled closure.
        assert compile_condition(self.risen()) is closure
        assert compile_condition(self.risen(conservative=False)) is not closure
        # ... and so does a pickled copy: compiling leaves no lambda on it.
        assert compile_condition(pickle.loads(pickle.dumps(condition))) is closure

    def test_constants_are_compiled_at_full_precision(self):
        # The two thresholds print alike to six significant digits.
        below = compile_condition(c1(threshold=0.1234567))
        above = compile_condition(c1(threshold=0.12345679))
        assert below is not above
        reading = [Update("x", 1, 0.12345675)]
        assert below(reading) and not above(reading)

    def test_conservative_guard_is_compiled_in(self):
        closure = compile_condition(self.risen())
        jump = [Update("x", 3, 500.0), Update("x", 1, 100.0)]
        step = [Update("x", 2, 500.0), Update("x", 1, 100.0)]
        assert closure(step) and not closure(jump)
        assert compile_condition(self.risen(conservative=False))(jump)

    def test_buffers_are_taken_in_sorted_variable_order(self):
        condition = ExpressionCondition(
            "order", H.b[0].value - H.a[0].value > 5.0
        )
        assert condition.variables == ("a", "b")
        closure = compile_condition(condition)
        assert closure([Update("a", 1, 1.0)], [Update("b", 1, 9.0)])
        assert not closure([Update("a", 1, 9.0)], [Update("b", 1, 1.0)])

    def test_what_does_not_compile(self):
        """Anything but a plain, rendering ExpressionCondition is evaluated
        by ``Condition.evaluate`` on a snapshot of the buffers."""
        class Inverted(ExpressionCondition):
            def _evaluate(self, histories):
                return not super()._evaluate(histories)

        seen = []
        buffers = [[Update("x", 3, 500.0), Update("x", 1, 100.0)]]
        for opaque, expected in (
            (PredicateCondition("p", {"x": 2}, lambda h: seen.append(h) or True), True),
            (c2().as_conservative(), False),  # the buffer skips 2x
            (Inverted("inv", H.x[0].value - H.x[-1].value > 0.0), False),
            # repr(inf) is a bare name, not a literal.
            (ExpressionCondition("inf", H.x[-1].value < float("inf")), True),
        ):
            holds = compile_condition(opaque)
            assert holds.__name__ != "<lambda>"  # the wrapper, not a rendering
            assert holds(*buffers) is expected
        (snapshot,) = seen
        assert isinstance(snapshot, HistorySnapshot)
        assert snapshot["x"] == tuple(buffers[0])
