"""Property-based round trip: expression AST → text → AST.

Random condition expressions are rendered with
:func:`repro.core.serialization.expression_to_text`, re-parsed with the
whitelisted grammar, and both versions are evaluated against random
histories — behavioural equality is the round-trip contract.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.condition import ExpressionCondition, compile_condition
from repro.core.expressions import H
from repro.core.history import HistorySet, HistorySnapshot
from repro.core.parser import parse_expression
from repro.core.serialization import expression_to_text
from repro.core.update import Update

VARS = ("x", "y")
MAX_DEGREE = 3


@st.composite
def numeric_exprs(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 3 else 1))
    if choice == 0:
        return st.just(None), draw(
            st.floats(-100.0, 100.0).map(lambda v: round(v, 2))
        )
    if choice == 1:
        var = draw(st.sampled_from(VARS))
        index = -draw(st.integers(0, MAX_DEGREE - 1))
        field = draw(st.sampled_from(["value", "seqno"]))
        return st.just(None), getattr(H[var][index], field)
    left = draw(numeric_exprs(depth + 1))[1]
    right = draw(numeric_exprs(depth + 1))[1]
    if choice == 2:
        op = draw(st.sampled_from(["+", "-", "*"]))
        result = {"+": lambda: left + right, "-": lambda: left - right,
                  "*": lambda: left * right}[op]()
        return st.just(None), result
    if choice == 3:
        inner = draw(numeric_exprs(depth + 1))[1]
        return st.just(None), -_lift(inner)
    if choice == 4:
        inner = draw(numeric_exprs(depth + 1))[1]
        return st.just(None), abs(_lift(inner))
    return st.just(None), left


def _lift(value):
    from repro.core.expressions import Const, Expr

    if isinstance(value, Expr):
        return value
    return Const(value)


@st.composite
def bool_exprs(draw, depth=0):
    choice = draw(st.integers(0, 3 if depth < 2 else 0))
    if choice == 0:
        left = _lift(draw(numeric_exprs())[1])
        right = _lift(draw(numeric_exprs())[1])
        op = draw(st.sampled_from([">", ">=", "<", "<=", "==", "!="]))
        import operator as _op
        from repro.core.expressions import Compare

        return Compare(op, left, right)
    left = draw(bool_exprs(depth + 1))
    if choice == 1:
        return left & draw(bool_exprs(depth + 1))
    if choice == 2:
        return left | draw(bool_exprs(depth + 1))
    return ~left


def full_history_set():
    histories = HistorySet({var: MAX_DEGREE for var in VARS})
    return histories


@st.composite
def filled_histories(draw):
    histories = full_history_set()
    for var in VARS:
        seqno = 0
        for _ in range(MAX_DEGREE):
            seqno += draw(st.integers(1, 3))
            value = draw(st.floats(-100.0, 100.0).map(lambda v: round(v, 2)))
            histories.push(Update(var, seqno, value))
    return histories


@settings(max_examples=120, deadline=None)
@given(bool_exprs(), filled_histories())
def test_text_roundtrip_behavioural_equality(expr, histories):
    text = expression_to_text(expr)
    reparsed = parse_expression(text)
    try:
        expected = expr.evaluate(histories)
    except ZeroDivisionError:
        return  # division only enters via literals; skip degenerate cases
    assert reparsed.evaluate(histories) == expected


@settings(max_examples=120, deadline=None)
@given(bool_exprs())
def test_text_roundtrip_preserves_degrees(expr):
    text = expression_to_text(expr)
    reparsed = parse_expression(text)
    assert reparsed.degrees() == expr.degrees()


@settings(max_examples=120, deadline=None)
@given(bool_exprs())
def test_text_normalises_in_one_pass(expr):
    """One parse/render round normalises: further rounds are fixpoints.

    (The raw AST may contain denormal shapes like ``-(-0)`` that the
    first round folds; after that the text must be stable forever.)
    """
    once = expression_to_text(parse_expression(expression_to_text(expr)))
    twice = expression_to_text(parse_expression(once))
    assert twice == once


def _outcome(thunk):
    try:
        return bool(thunk())
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=200, deadline=None)
@given(bool_exprs(), st.booleans(), filled_histories())
def test_compiled_closure_equals_condition_evaluate(expr, conservative, histories):
    """``compile_condition``'s closure ≡ ``Condition.evaluate`` — the AST
    walk is the oracle — on the windows a CE would hold, the conservative
    gap-guard included (the drawn seqnos skip, so it does fire)."""
    assume(expr.degrees())
    condition = ExpressionCondition("drawn", expr, conservative=conservative)
    closure = compile_condition(condition)
    assert closure is not None
    windows = {
        var: histories[var].snapshot()[: condition.degree(var)]
        for var in condition.variables
    }
    snapshot = HistorySnapshot.from_trusted(windows)
    assert _outcome(lambda: closure(*windows.values())) == _outcome(
        lambda: condition.evaluate(snapshot)
    )
