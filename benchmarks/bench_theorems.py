"""Theorems 1-4 — the per-row claims behind Table 1, checked two ways.

1. **Targeted**: the exact counterexample traces from the paper's proofs
   (Appendix B) replayed deterministically.
2. **Sweep**: randomized trials per theorem with the property checkers
   deciding each run, reporting violation *rates* (how often the ✗ of a
   row actually bites at loss p = 0.3) — the quantitative texture behind
   the paper's qualitative grid.
"""

from benchmarks.conftest import save_result
from repro.displayers import AD1
from repro.engine import TrialEngine, TrialSpec
from repro.props.report import PropertyTally
from repro.workloads.scenarios import SINGLE_VARIABLE_SCENARIOS
from repro.workloads.traces import theorem_3_example, theorem_4_example

TRIALS = 200
N_UPDATES = 40


def _sweep(row: str, engine: TrialEngine) -> PropertyTally:
    specs = [
        TrialSpec("single", row, "AD-1", 31000 + trial, N_UPDATES)
        for trial in range(TRIALS)
    ]
    return engine.run_tally(specs)


def _rate(violations: int, checked: int) -> str:
    if checked == 0:
        return "n/a"
    return f"{violations / checked:.2%}"


def test_theorem_rates(benchmark):
    def sweep_all():
        with TrialEngine(processes="auto") as engine:
            return {row: _sweep(row, engine) for row in SINGLE_VARIABLE_SCENARIOS}

    tallies = benchmark.pedantic(sweep_all, rounds=1, iterations=1)
    lines = [
        f"Violation rates under AD-1, {TRIALS} trials x {N_UPDATES} updates, loss=0.3",
        f"{'scenario':<16} {'unordered':>10} {'incomplete':>11} {'inconsistent':>13}",
    ]
    for row, tally in tallies.items():
        lines.append(
            f"{row:<16} {_rate(tally.ordered_violations, tally.runs):>10} "
            f"{_rate(tally.completeness_violations, tally.completeness_checked):>11} "
            f"{_rate(tally.consistency_violations, tally.consistency_checked):>13}"
        )
    text = "\n".join(lines)
    save_result("theorem_rates", text)

    # Theorem 1: lossless rows never violate anything.
    lossless = tallies["lossless"]
    assert lossless.always_ordered and lossless.always_complete
    # Theorem 2: non-historical stays complete, loses order.
    assert tallies["non-historical"].always_complete
    assert tallies["non-historical"].ordered_violations > 0
    # Theorem 3: conservative stays consistent, loses order + completeness.
    assert tallies["conservative"].always_consistent
    assert tallies["conservative"].completeness_violations > 0
    # Theorem 4: aggressive loses consistency.
    assert tallies["aggressive"].consistency_violations > 0


def test_theorem3_counterexample(benchmark):
    def run():
        ex = theorem_3_example()
        displayed = ex.display(AD1(), [1, 0])
        return ex, displayed

    ex, displayed = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.core.reference import merge_single_variable
    from repro.props.completeness import check_completeness_single
    from repro.props.consistency import check_consistency_single
    from repro.props.orderedness import check_orderedness

    merged = merge_single_variable(ex.traces[0], ex.traces[1])
    shown = [a.identity() for a in displayed]
    assert not check_orderedness(shown, ["x"])
    assert not check_completeness_single(shown, ex.condition, merged)
    assert check_consistency_single(shown, "x")
    save_result(
        "theorem3_counterexample",
        "Theorem 3 counterexample reproduced: "
        f"A = {[a.shorthand() for a in displayed]} "
        "(consistent, unordered, incomplete) — matches paper.",
    )


def test_theorem4_counterexample(benchmark):
    def run():
        ex = theorem_4_example()
        displayed = ex.display(AD1(), [0, 1])
        return ex, displayed

    ex, displayed = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.props.consistency import check_consistency_single

    assert not check_consistency_single([a.identity() for a in displayed], "x")
    save_result(
        "theorem4_counterexample",
        "Theorem 4 counterexample reproduced: "
        f"A = {[a.shorthand() for a in displayed]} is inconsistent — "
        "no single input sequence explains both alerts; matches paper.",
    )
