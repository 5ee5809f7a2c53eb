#!/usr/bin/env python3
"""Two reactors: multi-variable conditions and interleaving divergence.

Section 5 / Theorem 10: with two independent data sources, replication
breaks even over *lossless* links, because the CEs may see x- and
y-updates interleaved differently.  This script replays the paper's
two-reactor counterexample, then runs randomized two-variable systems
under AD-1 vs AD-5 vs AD-6 and tallies the paper's property claims.

Run:  python examples/multi_reactor.py
"""

from repro import cm
from repro.displayers import AD1, AD5
from repro.props.consistency import check_consistency_multi
from repro.props.orderedness import check_orderedness
from repro.props.report import PropertyTally
from repro.workloads.scenarios import MULTI_VARIABLE_SCENARIOS, run_scenario
from repro.workloads.traces import theorem_10_example


def paper_counterexample() -> None:
    print("=== Theorem 10's counterexample (lossless links!) ===")
    ex = theorem_10_example()
    print("Ux = <1x(1000), 2x(1200)>,  Uy = <1y(1050), 2y(1150)>")
    print("CE1 sees x first, CE2 sees y first (network delays differ).")
    print(f"CE1 alerts: {[a.shorthand() for a in ex.alert_streams[0]]}")
    print(f"CE2 alerts: {[a.shorthand() for a in ex.alert_streams[1]]}")

    displayed = ex.display(AD1(), [0, 1])
    print(f"\nAD-1 shows: {[a.shorthand() for a in displayed]}")
    shown = [a.identity() for a in displayed]
    print(f"  ordered?    {bool(check_orderedness(shown, ['x', 'y']))}")
    print(f"  consistent? {bool(check_consistency_multi(shown, ['x', 'y']))}")
    print("a(2x,1y) before a(1x,2y) needs 2x before 1x — impossible. "
          "The user sees an impossible story.")

    displayed5 = ex.display(AD5(("x", "y")), [0, 1])
    print(f"\nAD-5 shows: {[a.shorthand() for a in displayed5]} — "
          "ordered and consistent (one alert filtered).")


def randomized_sweep() -> None:
    print("\n=== Randomized two-reactor systems (|x - y| > 100), 60 trials ===")
    print(f"{'algorithm':<8} {'unordered':>10} {'inconsistent':>13}")
    for algorithm in ("AD-1", "AD-5", "AD-6"):
        tally = PropertyTally()
        for trial in range(60):
            run = run_scenario(
                MULTI_VARIABLE_SCENARIOS["non-historical"],
                algorithm,
                7000 + trial,
                n_updates=20,
            )
            tally.add(run.evaluate_properties(), seed=7000 + trial)
        print(
            f"{algorithm:<8} {tally.ordered_violations:>8}/60 "
            f"{tally.consistency_violations:>11}/60"
        )
    print(
        "\nAD-1 violates both properties routinely; AD-5/AD-6 never do "
        "(Table 3).  Completeness, however, is unobtainable for every "
        "multi-variable algorithm (Lemma 6) — see benchmarks/bench_table3.py."
    )


def main() -> None:
    paper_counterexample()
    randomized_sweep()


if __name__ == "__main__":
    main()
