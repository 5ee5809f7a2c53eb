"""Differential oracle: fuzzer findings vs. the exhaustive checker.

The fuzzer decides a violation from *one* simulated arrival order; the
exhaustive checker (:func:`repro.props.exhaustive.classify_trace_pair`)
replays **every** merge interleaving of the CE alert streams.  The two
must agree in one direction: if the simulator's own interleaving
violated a property, then the exhaustive sweep over all interleavings —
which includes that one — must report ``violated_count >= 1`` for it.
A finding the sweep calls "always holds" would mean the fuzzer's
verdicts and the replay model have diverged.

The oracle only applies to fault-free findings: the exhaustive checker
re-runs the CE stage deterministically from the received traces, which a
crashed or suppressed CE in the original run would desynchronize.  Every
campaign spec keeps the configured eight readings, so alert streams stay
inside the interleaving budget.
"""

from repro.displayers.registry import make_ad
from repro.fuzz import FuzzConfig, FuzzEngine
from repro.props.exhaustive import classify_trace_pair, count_merge_orders
from repro.workloads.scenarios import run_scenario

#: Interleaving ceiling per finding — keeps the sweep to well under a
#: second even for the widest tractable alert streams.
ORDER_LIMIT = 20_000
#: Cross-check at most this many findings (they are already distinct
#: behaviours, so the first few exercise the oracle plenty).
MAX_CHECKED = 8


def _campaign() -> FuzzConfig:
    return FuzzConfig(
        matrix="single",
        row="aggressive",
        algorithm="AD-2",
        target=None,  # any violated property is a finding
        budget=150,
        fuzz_seed=1,
        n_updates=8,
    )


def test_every_tractable_finding_is_confirmed_by_the_exhaustive_sweep():
    result = FuzzEngine(_campaign()).run()
    assert result.findings, "the aggressive/AD-2 cell must yield findings"

    checked = 0
    for finding in result.findings:
        if checked >= MAX_CHECKED:
            break
        spec = finding.witness_spec
        if spec.faults is not None:
            continue  # CE crashes desynchronize the replay-model oracle
        scenario = spec.resolve_scenario()
        run = run_scenario(
            scenario, spec.algorithm, spec.seed,
            n_updates=spec.n_updates, replication=spec.replication,
        )
        lengths = [len(alerts) for alerts in run.ce_alerts]
        if count_merge_orders(lengths) > ORDER_LIMIT:
            continue
        condition = scenario.make_condition()
        report = classify_trace_pair(
            condition, run.received,
            lambda: make_ad(spec.algorithm, condition),
            limit=ORDER_LIMIT,
        )
        classification = getattr(report, finding.violation)
        assert classification is not None, (
            f"{finding.violation} undecidable in the sweep but decided "
            f"False by the fuzzer (seed {spec.seed})"
        )
        assert classification.violated_count >= 1, (
            f"fuzzer saw a {finding.violation} violation at seed "
            f"{spec.seed} but all {report.interleavings} interleavings "
            "hold — verdict divergence"
        )
        checked += 1

    assert checked >= 1, "no finding was tractable for the oracle"


def test_oracle_agrees_the_simulated_order_is_one_of_the_interleavings():
    """Sanity direction: on a fault-free violating run, the *simulated*
    displayed sequence comes from some interleaving, so the sweep's
    violating witness exists and reproduces a violation when replayed."""
    result = FuzzEngine(_campaign()).run()
    for finding in result.findings:
        spec = finding.witness_spec
        if spec.faults is not None:
            continue
        scenario = spec.resolve_scenario()
        run = run_scenario(
            scenario, spec.algorithm, spec.seed,
            n_updates=spec.n_updates, replication=spec.replication,
        )
        lengths = [len(alerts) for alerts in run.ce_alerts]
        if count_merge_orders(lengths) > ORDER_LIMIT:
            continue
        condition = scenario.make_condition()
        report = classify_trace_pair(
            condition, run.received,
            lambda: make_ad(spec.algorithm, condition),
            limit=ORDER_LIMIT,
        )
        classification = getattr(report, finding.violation)
        assert classification.violating_witness is not None
        assert classification.verdict in ("sometimes", "never")
        return
    raise AssertionError("no tractable fault-free finding to check")
