"""Figure-1 motivation, "on time" half: replication shortens notification
latency.

Section 1 claims replication "reduces the probability that a critical
alert will not be delivered on time (or at all)".  bench_availability
measures "at all"; this bench measures "on time": with r replicas, the
first display of each alert is the minimum over r independent network
paths, so mean and tail latency shrink as r grows — even at zero loss.
Under loss the effect compounds: an update missed by one CE may still be
alerted promptly by another.  Each point pools the runs'
``alert_quality`` latency samples (display time minus the triggering
broadcast's time, per detected ground-truth event) and event counts.
"""

from benchmarks.conftest import save_result
from repro.accel import mean, percentiles
from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1
from repro.quality.metrics import alert_quality
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import threshold_crossers

TRIALS = 60
N_UPDATES = 30
LOSSES = (0.0, 0.2)
REPLICATIONS = (1, 2, 3)


def test_notification_latency(benchmark):
    def run():
        rows = []
        for loss in LOSSES:
            for replication in REPLICATIONS:
                samples: list[float] = []
                expected = detected = 0
                for seed in range(TRIALS):
                    streams = RandomStreams(90_000 + seed)
                    workload = {
                        "x": threshold_crossers(streams.stream("w"), N_UPDATES)
                    }
                    config = SystemConfig(
                        replication=replication, front_loss=loss
                    )
                    quality = alert_quality(
                        run_system(c1(), workload, config, seed=seed)
                    )
                    samples.extend(quality.latency_samples)
                    expected += quality.expected
                    detected += quality.detected
                median, p95 = percentiles(samples, (50.0, 95))
                rows.append((loss, replication, {
                    "mean": mean(samples),
                    "median": median,
                    "p95": p95,
                    "miss_fraction": 1.0 - detected / expected,
                }))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"First-notification latency vs replication ({TRIALS} runs/point)",
        f"{'loss':>6} {'CEs':>4} {'mean':>8} {'median':>8} {'p95':>8} "
        f"{'missed':>8}",
    ]
    stats_by_key = {}
    for loss, replication, stats in rows:
        stats_by_key[(loss, replication)] = stats
        lines.append(
            f"{loss:>6} {replication:>4} {stats['mean']:>8.2f} "
            f"{stats['median']:>8.2f} {stats['p95']:>8.2f} "
            f"{stats['miss_fraction']:>8.2%}"
        )
    text = "\n".join(lines)
    save_result("latency", text)

    for loss in LOSSES:
        one = stats_by_key[(loss, 1)]
        two = stats_by_key[(loss, 2)]
        three = stats_by_key[(loss, 3)]
        # Racing replicas strictly improves mean and tail latency:
        assert two["mean"] < one["mean"]
        assert three["mean"] <= two["mean"] + 0.2
        assert two["p95"] <= one["p95"]
        # And the "at all" half improves alongside:
        assert two["miss_fraction"] <= one["miss_fraction"]
