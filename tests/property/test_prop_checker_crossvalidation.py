"""Property-based cross-validation of the fast property checkers
against the exhaustive oracles.

The constraint-based consistency checkers (Received/Missed for single
variable, member-precedence graph for multi variable) and the two-layer
multi-variable completeness checker are the load-bearing novel code of
this reproduction — these tests check them against oracles that
literally enumerate every candidate witness U′ / every interleaving UV.
Instances are kept tiny so the oracles stay fast.

:func:`lossy_two_variable_runs` is the strategy every shortcut of the
two-layer checkers has to survive: the displayed sequence is an
*arbitrary* sub-multiset of both CEs' alerts in an arbitrary order — not
only what some AD algorithm would output — so unordered A, gap
histories, incomparable heads and skipped targets all occur
(``tests/integration/test_mutants.py`` shows it kills each first-layer
mutant).

:func:`lossy_single_variable_runs` does the same for the single-variable
checkers, whose oracles are the bodies they had before they were
rewritten over seqno windows: ``T`` re-run on the merged run with every
alert rebuilt, and ``spanning_set(h) − h`` per alert.

The engine differential tests cross-validate a different pair of
paths: the :class:`~repro.engine.core.TrialEngine` spec pipeline against
a direct :func:`~repro.workloads.scenarios.run_scenario` call, on
fault-laden specs — same verdicts, same observability counters, same
alert quality, whichever road a trial takes.
"""

from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alert import Alert, make_alert
from repro.core.condition import (
    ExpressionCondition,
    PredicateCondition,
    c1,
    c2,
    c3,
    cm,
)
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.reference import apply_T, combine_received
from repro.core.sequences import spanning_set
from repro.core.update import Update
from repro.props.completeness import (
    CompletenessResult,
    check_completeness_multi,
    check_completeness_single,
)
from repro.props.consistency import (
    ConsistencyResult,
    check_consistency_multi,
    check_consistency_single,
)
from repro.workloads.scenarios import cm_historical
from tests.conftest import (
    check_completeness_multi_enumerated,
    check_consistency_bruteforce,
    interleavings,
    keys_of,
)


@st.composite
def single_var_runs(draw):
    """Random DM output + two random received subsequences, c2 condition."""
    n = draw(st.integers(2, 6))
    values = draw(
        st.lists(
            st.integers(0, 1000).map(float), min_size=n, max_size=n
        )
    )
    sent = [Update("x", i + 1, v) for i, v in enumerate(values)]
    keep1 = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep2 = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    u1 = [u for u, k in zip(sent, keep1) if k]
    u2 = [u for u, k in zip(sent, keep2) if k]
    return u1, u2


@settings(max_examples=60, deadline=None)
@given(single_var_runs(), st.randoms(use_true_random=False))
def test_single_checker_matches_oracle(run, rng):
    u1, u2 = run
    condition = c2(delta=150.0)
    a1 = ConditionEvaluator(condition, "CE1").ingest_all(u1)
    a2 = ConditionEvaluator(condition, "CE2").ingest_all(u2)
    alerts = a1 + a2
    rng.shuffle(alerts)
    # A random displayed subset (what some AD might have passed through):
    displayed = [a for a in alerts if rng.random() < 0.8]
    per_var = combine_received([u1, u2], ["x"])
    fast = bool(check_consistency_single(keys_of(displayed), "x"))
    oracle = bool(
        check_consistency_bruteforce(displayed, condition, per_var)
    )
    assert fast == oracle


@st.composite
def multi_var_runs(draw):
    """Random 2-variable values; each CE sees its own interleaving."""
    nx = draw(st.integers(1, 3))
    ny = draw(st.integers(1, 3))
    x_vals = draw(st.lists(st.integers(0, 400).map(float), min_size=nx, max_size=nx))
    y_vals = draw(st.lists(st.integers(0, 400).map(float), min_size=ny, max_size=ny))
    xs = [Update("x", i + 1, v) for i, v in enumerate(x_vals)]
    ys = [Update("y", i + 1, v) for i, v in enumerate(y_vals)]
    all_inter = list(interleavings({"x": xs, "y": ys}))
    i1 = draw(st.integers(0, len(all_inter) - 1))
    i2 = draw(st.integers(0, len(all_inter) - 1))
    return xs, ys, all_inter[i1], all_inter[i2]


@settings(max_examples=50, deadline=None)
@given(multi_var_runs(), st.randoms(use_true_random=False))
def test_multi_checker_matches_oracle_nonhistorical(run, rng):
    xs, ys, t1, t2 = run
    condition = cm(gap=100.0)
    a1 = ConditionEvaluator(condition, "CE1").ingest_all(t1)
    a2 = ConditionEvaluator(condition, "CE2").ingest_all(t2)
    alerts = a1 + a2
    rng.shuffle(alerts)
    displayed = [a for a in alerts if rng.random() < 0.8]
    per_var = {"x": xs, "y": ys}
    fast = bool(check_consistency_multi(keys_of(displayed), ["x", "y"]))
    oracle = bool(
        check_consistency_bruteforce(displayed, condition, per_var)
    )
    assert fast == oracle


def _direct_report(spec):
    """Re-run a spec by hand: scenario resolution, tracer, fault profile
    and alert quality wired explicitly, bypassing TrialSpec.execute."""
    from repro.observability.tracer import CountersTracer
    from repro.quality.metrics import alert_quality
    from repro.workloads.scenarios import run_scenario

    tracer = CountersTracer()
    run = run_scenario(
        spec.resolve_scenario(),
        spec.algorithm,
        spec.seed,
        n_updates=spec.n_updates,
        replication=spec.replication,
        tracer=tracer,
        faults=spec.faults,
    )
    return dc_replace(
        run.evaluate_properties(),
        counters=tracer.as_dict(),
        quality=alert_quality(run).as_dict(),
    )


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["lossless", "non-historical", "aggressive"]),
    st.sampled_from(["AD-1", "AD-2", "AD-3", "AD-4"]),
    st.integers(0, 2**31),
    st.integers(4, 14),
    st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
)
def test_engine_and_direct_paths_agree_under_faults(
    row, algorithm, seed, n, chaos
):
    """Differential: the TrialEngine path and a direct simulation of the
    same fault-laden spec report identical verdicts, counters and
    alert quality."""
    from repro.engine import TrialEngine
    from repro.engine.spec import TrialSpec
    from repro.faults import DEFAULT_CHAOS_PROFILE

    faults = DEFAULT_CHAOS_PROFILE.scaled(chaos)
    if faults.is_clean:
        faults = None
    spec = TrialSpec(
        "single", row, algorithm, seed, n,
        faults=faults, collect_counters=True, collect_quality=True,
    )
    (engine_report,) = TrialEngine(processes=1).run([spec])
    direct_report = _direct_report(spec)
    assert engine_report == direct_report  # verdict equality
    assert engine_report.counters == direct_report.counters
    assert engine_report.quality == direct_report.quality


def _historical_condition():
    """Degree-2-in-x two-variable condition with value-free truth.

    Truth depends only on seqnos so the oracle and checker see identical
    trigger behaviour regardless of values: triggers when the x-history
    heads sum with the y-head to an even number (arbitrary but stable).
    """

    def predicate(h):
        return (h["x"][0].seqno + h["y"][0].seqno) % 2 == 0

    return PredicateCondition("hist2", {"x": 2, "y": 1}, predicate)


@settings(max_examples=40, deadline=None)
@given(multi_var_runs(), st.randoms(use_true_random=False))
def test_multi_checker_matches_oracle_historical(run, rng):
    xs, ys, t1, t2 = run
    condition = _historical_condition()
    a1 = ConditionEvaluator(condition, "CE1").ingest_all(t1)
    a2 = ConditionEvaluator(condition, "CE2").ingest_all(t2)
    alerts = a1 + a2
    rng.shuffle(alerts)
    displayed = [a for a in alerts if rng.random() < 0.8]
    per_var = {"x": xs, "y": ys}
    fast = bool(check_consistency_multi(keys_of(displayed), ["x", "y"]))
    oracle = bool(
        check_consistency_bruteforce(displayed, condition, per_var)
    )
    assert fast == oracle


#: Table 3's three condition shapes: non-historical, and degree 2 in x
#: with and without the conservative gap-guard.
TWO_VARIABLE_CONDITIONS = (
    cm(gap=100.0),
    cm_historical(conservative=True),
    cm_historical(conservative=False),
)


@st.composite
def lossy_two_variable_runs(draw):
    """``(condition, per_variable, displayed)`` for two lossy CEs.

    Each CE loses its own updates and sees its own x/y interleaving;
    ``displayed`` is any selection of the alerts the two raised, in any
    order — what an arbitrary (even broken) AD could have output.
    """
    condition = draw(st.sampled_from(TWO_VARIABLE_CONDITIONS))
    # Four temperature levels a rise/gap threshold apart, so the
    # conditions fire (and fail to) often instead of almost never.
    values = st.sampled_from((0.0, 150.0, 300.0, 450.0))
    sent = {
        var: [
            Update(var, seqno, value)
            for seqno, value in enumerate(
                draw(st.lists(values, min_size=1, max_size=4)), 1
            )
        ]
        for var in ("x", "y")
    }
    traces, alerts = [], []
    for source in ("CE1", "CE2"):
        kept = {
            var: [u for u in run if draw(st.integers(0, 3)) > 0]
            for var, run in sent.items()
        }
        arrivals = list(interleavings(kept))
        trace = arrivals[draw(st.integers(0, len(arrivals) - 1))]
        traces.append(trace)
        alerts.extend(ConditionEvaluator(condition, source).ingest_all(trace))
    chosen = [a for a in alerts if draw(st.integers(0, 3)) > 0]
    displayed = draw(st.permutations(chosen))
    return condition, combine_received(traces, ("x", "y")), displayed


@settings(max_examples=150, deadline=None)
@given(lossy_two_variable_runs())
def test_two_layer_completeness_equals_the_enumeration_oracle(case):
    """Verdict, ``missing`` and ``extraneous`` — the whole dataclass."""
    condition, per_var, displayed = case
    assert check_completeness_multi(
        keys_of(displayed), condition, per_var
    ) == check_completeness_multi_enumerated(displayed, condition, per_var)


@settings(max_examples=150, deadline=None)
@given(lossy_two_variable_runs())
def test_two_layer_consistency_matches_the_bruteforce_oracle(case):
    condition, per_var, displayed = case
    fast = check_consistency_multi(keys_of(displayed), ["x", "y"])
    oracle = check_consistency_bruteforce(displayed, condition, per_var)
    assert bool(fast) == bool(oracle)


@settings(max_examples=60, deadline=None)
@given(multi_var_runs(), st.randoms(use_true_random=False))
def test_completeness_without_a_compiled_closure(run, rng):
    """An opaque predicate does not compile, so the grid points are
    evaluated through ``Condition.evaluate`` — same oracle, same answer."""
    xs, ys, t1, t2 = run
    condition = _historical_condition()
    alerts = ConditionEvaluator(condition, "CE1").ingest_all(
        t1
    ) + ConditionEvaluator(condition, "CE2").ingest_all(t2)
    rng.shuffle(alerts)
    displayed = [a for a in alerts if rng.random() < 0.8]
    per_var = {"x": xs, "y": ys}
    assert check_completeness_multi(
        keys_of(displayed), condition, per_var
    ) == check_completeness_multi_enumerated(displayed, condition, per_var)


# ---------------------------------------------------------------------------
# Single-variable checkers against the bodies they replaced.
# ---------------------------------------------------------------------------

def completeness_single_by_rerunning_T(alerts, condition, merged_updates):
    """``check_completeness_single`` as it was: T over the merged run,
    every alert and snapshot rebuilt, two identity sets compared."""
    expected = frozenset(a.identity() for a in apply_T(condition, merged_updates))
    actual = frozenset(a.identity() for a in alerts)
    return CompletenessResult(
        complete=(expected == actual),
        missing=frozenset(expected - actual),
        extraneous=frozenset(actual - expected),
    )


def consistency_single_by_spanning_sets(alerts, varname):
    """``check_consistency_single`` as it was: Figure A-3's sets built
    per alert from ``spanning_set``."""
    received, missed = set(), set()
    for index, alert in enumerate(alerts):
        history = set(alert.histories.seqnos(varname))
        gaps = spanning_set(history) - frozenset(history)
        for clash, need, other in (
            (history & missed, "received", "missed"),
            (gaps & received, "missed", "received"),
        ):
            if clash:
                return ConsistencyResult(
                    False,
                    conflict=(
                        f"alert #{index} {alert.shorthand()} requires update "
                        f"{min(clash)} {need}, but an earlier alert requires "
                        f"it {other}"
                    ),
                )
        received |= history
        missed |= gaps
    return ConsistencyResult(True, witness_received=frozenset(received))


def _seqno_parity(h):
    return (h["x"][0].seqno + h["x"][-1].seqno) % 3 != 0


#: Degree 1 to 3, aggressive and conservative, compiled and not: the
#: predicate and the ``as_conservative`` wrapper are evaluated through
#: ``compile_condition``'s snapshot detour.
SINGLE_VARIABLE_CONDITIONS = (
    c1(threshold=200.0),
    c2(delta=100.0),
    c3(delta=100.0),
    ExpressionCondition("rise3", H.x[0].value - H.x[-2].value > 100.0),
    ExpressionCondition(
        "rise3c", H.x[0].value - H.x[-2].value > 100.0, conservative=True
    ),
    PredicateCondition("parity", {"x": 2}, _seqno_parity),
    c2(delta=100.0).as_conservative(),
)


@st.composite
def lossy_single_variable_runs(draw):
    """``(condition, merged, displayed)`` for two lossy CEs on one variable.

    The sent run may be shorter than the condition's degree (or empty);
    each CE loses its own updates, so an aggressive condition raises
    gap-history alerts T never would on the merged run.  ``displayed`` is
    any selection of the two CEs' alerts in any order, sometimes with an
    alert of another condition name, of another variable, or of an extra
    variable among them; ``merged`` is U1 ⊔ U2, sometimes interleaved
    with updates of a variable the condition does not read.
    """
    condition = draw(st.sampled_from(SINGLE_VARIABLE_CONDITIONS))
    values = st.sampled_from((0.0, 150.0, 300.0, 450.0))
    sent = [
        Update("x", seqno, value)
        for seqno, value in enumerate(draw(st.lists(values, max_size=7)), 1)
    ]
    traces, alerts = [], []
    for source in ("CE1", "CE2"):
        trace = [u for u in sent if draw(st.integers(0, 3)) > 0]
        traces.append(trace)
        alerts.extend(ConditionEvaluator(condition, source).ingest_all(trace))
    chosen = [a for a in alerts if draw(st.integers(0, 3)) > 0]
    stranger = draw(st.integers(0, 7))
    if stranger == 0 and alerts:
        # Same history, another condition's name.
        chosen.append(Alert("other", draw(st.sampled_from(alerts)).histories))
    elif stranger == 1:
        chosen.append(make_alert(condition.name, {"y": [Update("y", 1, 0.0)]}))
    elif stranger == 2 and alerts:
        histories = draw(st.sampled_from(alerts)).histories
        chosen.append(make_alert(
            condition.name, {"x": histories["x"], "y": [Update("y", 1, 0.0)]}
        ))
    displayed = draw(st.permutations(chosen))
    merged = combine_received(traces, ("x",))["x"]
    for seqno in range(1, draw(st.integers(0, 2)) + 1):
        merged.insert(
            draw(st.integers(0, len(merged))), Update("y", seqno, 300.0)
        )
    return condition, merged, displayed


@settings(max_examples=300, deadline=None)
@given(lossy_single_variable_runs())
def test_window_completeness_equals_rerunning_T(case):
    """Verdict, ``missing`` and ``extraneous`` — the whole dataclass."""
    condition, merged, displayed = case
    assert check_completeness_single(
        keys_of(displayed), condition, merged
    ) == completeness_single_by_rerunning_T(displayed, condition, merged)


@settings(max_examples=150, deadline=None)
@given(lossy_single_variable_runs())
def test_single_consistency_equals_the_spanning_set_form(case):
    """Verdict, witness and the conflict sentence, on the alerts that
    carry the variable at all."""
    _, _, displayed = case
    displayed = [a for a in displayed if "x" in a.histories]
    assert check_consistency_single(
        keys_of(displayed), "x"
    ) == consistency_single_by_spanning_sets(displayed, "x")


@settings(max_examples=50, deadline=None)
@given(lossy_single_variable_runs(), st.data())
def test_window_completeness_rejects_a_repeated_seqno(case, data):
    """T is undefined on a run that is not strictly ordered; the
    evaluator the checker no longer builds raised, and so does it."""
    condition, merged, displayed = case
    run = [u for u in merged if u.varname == "x"]
    if not run:
        return
    again = data.draw(st.sampled_from(run))
    merged.insert(
        data.draw(st.integers(merged.index(again) + 1, len(merged))), again
    )
    with pytest.raises(ValueError):
        completeness_single_by_rerunning_T(displayed, condition, merged)
    with pytest.raises(ValueError):
        check_completeness_single(keys_of(displayed), condition, merged)
