"""§4.2's dismissed alternative, quantified: delayed display vs AD-2.

"Instead of discarding alerts that arrive out of order ... the AD could
preset a timeout value t ... unless system delays are bounded,
orderedness is no longer guaranteed."  The paper leaves it there; this
bench sweeps the timeout and measures the three-way tradeoff the choice
actually buys:

* alerts displayed (completeness pressure) — grows with t;
* runs with an ordering inversion — shrinks with t;
* mean added display latency — grows with t.

AD-2 is the t-=-drop-everything-late corner; t → ∞ is the paper's
"indefinite delays" corner.
"""

from benchmarks.conftest import save_result
from repro.components.system import MonitoringSystem, SystemConfig, run_system
from repro.core.condition import c1
from repro.displayers.delayed import attach_delayed_ad
from repro.props.orderedness import check_orderedness
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import threshold_crossers

TRIALS = 80
N_UPDATES = 30
TIMEOUTS = (0.0, 5.0, 15.0, 30.0, 60.0)


def _workload(seed: int):
    streams = RandomStreams(seed)
    return {"x": threshold_crossers(streams.stream("w"), N_UPDATES)}


def test_delayed_display_tradeoff(benchmark):
    def run():
        rows = []
        config = SystemConfig(replication=2, front_loss=0.3, ad_algorithm="AD-2")

        # Baseline: AD-2 drops out-of-order alerts.
        displayed_total = 0
        unordered_runs = 0
        for seed in range(TRIALS):
            result = run_system(c1(), _workload(seed), config, seed=seed)
            displayed_total += len(result.displayed)
            if not check_orderedness(result.displayed_keys, ["x"]):
                unordered_runs += 1
        rows.append(("AD-2", displayed_total / TRIALS, unordered_runs, 0.0))

        for timeout in TIMEOUTS:
            displayed_total = 0
            unordered_runs = 0
            latency_total = 0.0
            for seed in range(TRIALS):
                system = MonitoringSystem(
                    c1(), _workload(seed), config, seed=seed
                )
                delayed = attach_delayed_ad(system, timeout=timeout)
                system.run()
                delayed.flush()
                displayed_total += len(delayed.displayed)
                latency_total += delayed.mean_added_latency()
                shown = [a.identity() for a in delayed.displayed]
                if not check_orderedness(shown, ["x"]):
                    unordered_runs += 1
            rows.append(
                (
                    f"t={timeout:g}",
                    displayed_total / TRIALS,
                    unordered_runs,
                    latency_total / TRIALS,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"Delayed display vs AD-2 ({TRIALS} runs, loss 0.3, back-delay "
        "spread ~30)",
        f"{'policy':>8} {'alerts/run':>11} {'unordered runs':>15} "
        f"{'added latency':>14}",
    ]
    for policy, mean_displayed, unordered, latency in rows:
        lines.append(
            f"{policy:>8} {mean_displayed:>11.2f} "
            f"{unordered:>11}/{TRIALS} {latency:>14.2f}"
        )
    text = "\n".join(lines)
    save_result("delayed_display", text)

    baseline = rows[0]
    by_policy = {policy: row for policy, *row in rows}
    # AD-2 never shows an inversion (Theorem 5's guarantee):
    assert baseline[2] == 0
    # Delayed display shows >= as many alerts as AD-2 at every timeout:
    for policy, mean_displayed, _, _ in rows[1:]:
        assert mean_displayed >= baseline[1] - 1e-9, policy
    # Inversions decrease as the timeout grows (paper's tradeoff):
    inversions = [unordered for _, _, unordered, _ in rows[1:]]
    assert inversions[0] >= inversions[-1]
    # ...and a timeout beyond the delay spread eliminates them entirely:
    assert inversions[-1] == 0
    # while latency rises with the timeout:
    latencies = [lat for _, _, _, lat in rows[1:]]
    assert latencies[-1] > latencies[0]
