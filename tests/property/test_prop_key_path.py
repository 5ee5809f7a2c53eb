"""Differential: the key path against the object path it sits under.

:meth:`ConditionEvaluator.step <repro.core.evaluator.ConditionEvaluator.step>`
returns the identity key of the alert it raised, and
:meth:`ADAlgorithm.decide <repro.displayers.base.ADAlgorithm.decide>`
decides on a key; ``ingest`` and ``offer`` are the object API layered on
top.  Two twins, one fed keys and one fed objects, must agree:

* over random update streams — one to three variables, degrees 1–3,
  conservative and aggressive, gaps, and updates of variables the
  condition does not watch — every step's key is the identity of the
  alert the twin's ``ingest`` built, the windows are that alert's
  histories, and both render the same canonical line;
* over random arrival streams — duplicates and alerts of another
  condition included — every algorithm of the registry, plus
  :class:`~repro.core.wire.ChecksumAD1`, decides each key as its twin
  offers the alert, with the same rejection reason;
* and each algorithm decides the same when its keys carry only what
  :func:`~repro.core.wire.minimum_encoding` says it reads.
"""

from hypothesis import given, settings, strategies as st

from repro.core.alert import make_alert
from repro.core.condition import ExpressionCondition
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.history import HistorySnapshot
from repro.core.serialization import alert_canonical_line, canonical_line
from repro.core.update import Update
from repro.core.wire import AlertEncoding, ChecksumAD1, minimum_encoding
from repro.displayers.registry import algorithm_info, algorithm_names, make_ad

VARIABLES = ("x", "y", "z")


@st.composite
def conditions(draw):
    names = draw(
        st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True)
    )
    expression = None
    for var in sorted(names):
        degree = draw(st.integers(1, 3))
        if degree == 1:
            term = H[var][0].value > draw(st.sampled_from([0.0, 40.0, 70.0]))
        else:
            term = H[var][0].value - H[var][1 - degree].value > draw(
                st.sampled_from([-20.0, 0.0, 20.0])
            )
        if expression is None:
            expression = term
        elif draw(st.booleans()):
            expression = expression & term
        else:
            expression = expression | term
    return ExpressionCondition("c", expression, conservative=draw(st.booleans()))


@st.composite
def update_streams(draw):
    """Per variable, increasing seqnos with gaps; the variables (and a
    foreign one, ``w``) interleaved at random."""
    per_variable = {}
    for var in (*VARIABLES, "w"):
        seqnos = sorted(draw(st.sets(st.integers(1, 30), max_size=12)))
        per_variable[var] = [
            Update(var, seqno, float(draw(st.integers(0, 100))))
            for seqno in seqnos
        ]
    stream = []
    while any(per_variable.values()):
        var = draw(st.sampled_from([v for v, ups in per_variable.items() if ups]))
        stream.append(per_variable[var].pop(0))
    return stream


@given(conditions(), update_streams())
@settings(max_examples=300, deadline=None)
def test_step_keys_are_ingest_identities(condition, stream):
    keyed = ConditionEvaluator(condition, source="CE1")
    built = ConditionEvaluator(condition, source="CE1")
    for update in stream:
        key = keyed.step(update)
        alert = built.ingest(update)
        assert (key is None) == (alert is None)
        if key is None:
            continue
        assert key == alert.identity()
        windows = keyed.windows()
        assert windows == tuple(alert.histories.items())
        # The memo the evaluator filled is what a fresh snapshot computes.
        fresh = HistorySnapshot(dict(windows))
        assert alert.histories.identity() == fresh.identity()
        assert (key[0], fresh.identity()) == key
        assert canonical_line(key[0], "CE1", windows) == alert_canonical_line(alert)
    assert keyed.received == built.received


def _alert(condname, draw, variables):
    histories = {}
    for var in variables:
        degree = draw(st.integers(1, 3))
        seqnos = sorted(draw(st.sets(st.integers(1, 12), min_size=degree,
                                     max_size=degree)), reverse=True)
        histories[var] = [Update(var, s, float(s)) for s in seqnos]
    return make_alert(condname, histories, source=draw(st.sampled_from(["CE1", "CE2"])))


@st.composite
def arrival_streams(draw, variables):
    """Alerts over ``variables``, some re-arriving (as a new object with
    the same identity, or the same object) and some of another condition."""
    stream = []
    for _ in range(draw(st.integers(0, 30))):
        choice = draw(st.integers(0, 5))
        if stream and choice == 0:
            stream.append(draw(st.sampled_from(stream)))
        elif stream and choice == 1:
            again = draw(st.sampled_from(stream))
            stream.append(make_alert(
                again.condname,
                {var: list(again.histories[var]) for var in again.histories},
                source="CE2",
            ))
        else:
            condname = "other" if choice == 2 else "c"
            stream.append(_alert(condname, draw, variables))
    return stream


def _twins(name, condition):
    if name == "checksum":
        return ChecksumAD1(), ChecksumAD1()
    return make_ad(name, condition), make_ad(name, condition)


ALGORITHMS = (*algorithm_names(), "checksum")


def _assert_decisions_agree(condition, stream):
    for name in ALGORITHMS:
        if name != "checksum" and not algorithm_info(name).multi_variable \
                and len(condition.variables) != 1:
            continue
        keyed, offered = _twins(name, condition)
        for alert in stream:
            decided = keyed.decide(alert.identity())
            assert decided == offered.offer(alert), name
            if not decided:
                assert keyed.rejection_reason(
                    alert.identity()
                ) == offered.rejection_reason(alert.identity()), name


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_single_variable_decisions_agree(data):
    condition = ExpressionCondition(
        "c", H["x"][0].value - H["x"][-1].value > 0.0
    )
    _assert_decisions_agree(condition, data.draw(arrival_streams(("x",))))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_multi_variable_decisions_agree(data):
    condition = ExpressionCondition(
        "c", abs(H["x"][0].value - H["y"][0].value) > 1.0
    )
    _assert_decisions_agree(condition, data.draw(arrival_streams(("x", "y"))))


def _project(key, encoding):
    """``key`` cut down to what ``encoding`` carries."""
    condname, runs = key
    if encoding is AlertEncoding.HEADS:
        return (condname, tuple((var, seqnos[:1]) for var, seqnos in runs))
    if encoding is AlertEncoding.CHECKSUM:
        return (condname, (("digest", (hash(runs),)),))
    return key


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_minimum_encoding_is_all_decide_reads(data):
    """``core.wire``'s minimum encoding per algorithm is a contract on
    ``decide``: fed only that much of each key, it decides the same."""
    for variables, expression in (
        (("x",), H["x"][0].value - H["x"][-1].value > 0.0),
        (("x", "y"), abs(H["x"][0].value - H["y"][0].value) > 1.0),
    ):
        condition = ExpressionCondition("c", expression)
        stream = data.draw(arrival_streams(variables))
        for name in algorithm_names():
            if not algorithm_info(name).multi_variable and len(variables) != 1:
                continue
            encoding = minimum_encoding(name)
            full, cut = make_ad(name, condition), make_ad(name, condition)
            for alert in stream:
                key = alert.identity()
                assert full.decide(key) == cut.decide(_project(key, encoding)), name
