"""Figure-1 motivation — replication reduces the chance of missing alerts.

The paper's Figure 1 is a system diagram, not a data plot, but its entire
premise is quantitative: "redundancy in the system reduces the
probability that a critical alert will not be delivered on time (or at
all)".  This bench sweeps front-link loss p ∈ {0 … 0.5} × replication
r ∈ {1, 2, 3} with CE crash/repair cycles, and reports the fraction of
ground-truth alerts that never reached the user.

Expected shape: miss fraction decreasing roughly geometrically in the
number of CEs at every loss level, and increasing in p for every r.
"""

from benchmarks.conftest import save_result
from repro.analysis.experiments import availability_experiment
from repro.faults import CHAOS_SWEEP

LOSS_PROBS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
REPLICATIONS = (1, 2, 3)
TRIALS = 60


def test_availability(benchmark):
    points = benchmark.pedantic(
        lambda: availability_experiment(
            loss_probs=LOSS_PROBS, replications=REPLICATIONS, trials=TRIALS
        ),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"Missed-alert fraction vs replication ({TRIALS} trials/point, "
        "CE crash rate 0.004, mean repair 60)",
        f"{'loss':>6} {'CEs':>4} {'mean miss':>10} {'any-miss runs':>14}",
    ]
    by_key = {}
    for p in points:
        by_key[(p.front_loss, p.replication)] = p
        lines.append(
            f"{p.front_loss:>6} {p.replication:>4} "
            f"{p.mean_miss_fraction:>10.3f} {p.any_alert_missed_fraction:>14.2f}"
        )
    text = "\n".join(lines)
    save_result("availability", text)

    # Shape check: at every loss level, more CEs -> fewer missed alerts.
    for loss in LOSS_PROBS:
        m1 = by_key[(loss, 1)].mean_miss_fraction
        m2 = by_key[(loss, 2)].mean_miss_fraction
        m3 = by_key[(loss, 3)].mean_miss_fraction
        assert m2 <= m1, f"2 CEs worse than 1 at loss={loss}"
        assert m3 <= m2 + 0.02, f"3 CEs worse than 2 at loss={loss}"
    # And replication buys a large factor at moderate loss:
    assert by_key[(0.2, 2)].mean_miss_fraction < 0.6 * by_key[(0.2, 1)].mean_miss_fraction


def test_availability_under_chaos(benchmark):
    """Figure-1 shape under the full fault model, not just link loss.

    The chaos sweep layers CE/DM/AD crashes, link outages, burst loss,
    duplication and congestion spikes on top of the scenario's own loss;
    the claim stays the same — at every chaos intensity, adding CEs does
    not increase (and at some intensity strictly reduces) the fraction of
    ground-truth alerts the user never sees.
    """
    cells = benchmark.pedantic(
        lambda: CHAOS_SWEEP.run(
            intensities=(0.0, 0.5, 1.0, 2.0),
            replications=REPLICATIONS,
            trials=25,
            n_updates=30,
        ),
        rounds=1,
        iterations=1,
    )
    table = CHAOS_SWEEP.render(cells)
    save_result("availability_chaos", table)
    assert CHAOS_SWEEP.claim(cells), (
        "replication failed to reduce missed alerts under chaos:\n" + table
    )
    # Faults hurt: at the top intensity, single-CE misses must exceed the
    # clean sweep's (the fault model is actually doing something).
    by_key = {(c["intensity"], c["replication"]): c for c in cells}
    assert (
        by_key[(2.0, 1)]["mean_miss_fraction"]
        > by_key[(0.0, 1)]["mean_miss_fraction"]
    )
