"""Property-based round trip: expression AST → text → AST.

Random condition expressions are rendered with
:func:`repro.core.serialization.expression_to_text`, re-parsed with the
whitelisted grammar, and both versions are evaluated against random
histories — behavioural equality is the round-trip contract.

The same expression strategy drives the CE-step differentials: the
compiled closure against ``Condition.evaluate`` on one window, and
``ConditionEvaluator`` against a naive ``T`` over whole lossy streams.
Both simulator kernels run that one evaluator, so these — not the kernel
differential — are what proves CE evaluation.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.alert import Alert
from repro.core.condition import (
    ExpressionCondition,
    PredicateCondition,
    compile_condition,
)
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.history import HistorySnapshot
from repro.core.parser import parse_expression
from repro.core.serialization import expression_to_text
from repro.core.update import Update
from tests.conftest import snapshot_of

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


@st.composite
def lossy_streams(draw, variables, min_size, max_size):
    """An arrival order a CE could see: the variables interleave freely
    and each variable's seqnos increase, skipping where updates were lost."""
    seqnos = dict.fromkeys(variables, 0)
    stream = []
    for var in draw(
        st.lists(st.sampled_from(variables), min_size=min_size, max_size=max_size)
    ):
        seqnos[var] += draw(st.integers(1, 3))
        value = draw(st.floats(-100.0, 100.0).map(lambda v: round(v, 2)))
        stream.append(Update(var, seqnos[var], value))
    return stream


@st.composite
def filled_histories(draw):
    """H at full depth in every variable (gaps included)."""
    stream = []
    for var in VARS:
        stream += draw(lossy_streams((var,), MAX_DEGREE, MAX_DEGREE))
    return snapshot_of(dict.fromkeys(VARS, MAX_DEGREE), stream)


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
    assert closure.__name__ == "<lambda>"  # rendered, not the AST wrapper
    windows = {
        var: histories[var][: condition.degree(var)]
        for var in condition.variables
    }
    snapshot = HistorySnapshot.from_trusted(windows)
    assert _outcome(lambda: closure(*windows.values())) == _outcome(
        lambda: condition.evaluate(snapshot)
    )


def naive_T(condition, stream):
    """``T(U)`` the slow way: keep each variable's window, freeze it into
    a validated snapshot per arrival, ask ``Condition.evaluate``."""
    degrees = condition.degrees
    windows = {var: () for var in degrees}
    alerts = []
    for update in stream:
        var = update.varname
        if var not in degrees:
            continue
        windows[var] = ((update,) + windows[var])[: degrees[var]]
        if any(len(windows[v]) < degrees[v] for v in degrees):
            continue
        snapshot = HistorySnapshot(windows)
        if condition.evaluate(snapshot):
            alerts.append(Alert(condition.name, snapshot, "N"))
    return alerts


def _assert_evaluator_is_naive_T(condition, stream):
    evaluator = ConditionEvaluator(condition, source="N")
    produced = evaluator.ingest_all(stream)
    expected = naive_T(condition, stream)
    assert produced == expected
    assert [a.source for a in produced] == ["N"] * len(expected)
    assert evaluator.alerts == tuple(expected)
    assert evaluator.received == tuple(
        u for u in stream if u.varname in condition.variables
    )


@settings(max_examples=200, deadline=None)
@given(bool_exprs(), st.booleans(), lossy_streams(VARS + ("z",), 8, 20))
def test_evaluator_equals_naive_T(expr, conservative, stream):
    """``ConditionEvaluator.ingest_all`` ≡ the naive T — aggressive and
    conservative, one or two variables, degree up to three, gapped
    streams, updates for a variable outside V interleaved."""
    assume(expr.degrees())
    condition = ExpressionCondition("drawn", expr, conservative=conservative)
    _assert_evaluator_is_naive_T(condition, stream)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), lossy_streams(VARS + ("z",), 8, 20))
def test_evaluator_equals_naive_T_for_an_opaque_predicate(conservative, stream):
    """The same, for a condition that does not compile to a lambda."""
    condition = PredicateCondition(
        "opaque",
        {"x": 3, "y": 1},
        lambda h: (h["x"][0].seqno + h["x"][2].seqno + h["y"][0].seqno) % 2 == 0,
        conservative=conservative,
    )
    _assert_evaluator_is_naive_T(condition, stream)
