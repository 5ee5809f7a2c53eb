"""Membership benchmark — what detection + catch-up buys.

Sweeps churn intensity × failure-detector timeout over the aggressive
single-variable cell (the scenario whose historical condition makes
crash gaps *visible* as property violations) and reports, per intensity:

* **detection latency** p50/p99 — crash start → suspicion, over every
  detected crash in the recovery cells;
* **MTTR** p50/p99 — crash start → state-complete, over every successful
  catch-up;
* **missed-alert rate** — baseline (membership off) vs. the best
  recovery cell, the Figure-1-style payoff of the lifecycle;
* **missed detections** — crashes the unreliable detector never noticed.

All of these are simulated-time quantities, so the artifact regenerates
exactly.  The sweep must satisfy
:func:`repro.faults.recovery_restores_alerts`, the claim of
:data:`repro.faults.CHURN_SWEEP`: recovery strictly reduces
missed alerts wherever the baseline misses any, and never makes them
worse.  What the lifecycle costs in wall-clock is the
``membership.cost_ratio`` metric of the ``chaos-churn-grid`` workload
(``make perf WORKLOAD=chaos-churn-grid TRACE=1``).
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.accel import percentiles
from repro.faults import CHURN_SWEEP, churn_specs

INTENSITIES = (0.5, 1.0, 2.0)
#: The recovery cells; the membership-off baseline runs alongside.
DETECTION_TIMEOUTS = (2.0, 4.0, 8.0)
#: The recovery cell whose latency distributions are published.
REFERENCE_TIMEOUT = 4.0
CATCHUP_LATENCY = 2.0
TRIALS = 20


def latency_distributions() -> dict:
    """Per-intensity detection-latency and MTTR distributions at the
    reference recovery cell (same seeds the sweep's cells run)."""
    out = {}
    for intensity in INTENSITIES:
        detection: list[float] = []
        recovery: list[float] = []
        missed = 0
        crashes = 0
        for spec in churn_specs(
            intensity, REFERENCE_TIMEOUT, CATCHUP_LATENCY, TRIALS
        ):
            plan = spec.run().membership
            detection.extend(plan.detection_latencies)
            recovery.extend(plan.recovery_latencies)
            missed += plan.missed_detections
            crashes += len(plan.recoveries)
        detection_p50, detection_p99 = percentiles(detection, (50, 99))
        mttr_p50, mttr_p99 = percentiles(recovery, (50, 99))
        out[f"{intensity:g}"] = {
            "crash_windows": crashes,
            "detection_p50": detection_p50,
            "detection_p99": detection_p99,
            "mttr_p50": mttr_p50,
            "mttr_p99": mttr_p99,
            "missed_detections": missed,
        }
    return out


def miss_rates(cells) -> dict:
    """Baseline vs. best-recovery missed-alert fraction per intensity."""
    out = {}
    for intensity in INTENSITIES:
        group = [c for c in cells if c["intensity"] == intensity]
        baseline = next(c for c in group if c["detection_timeout"] is None)
        recovered = [c for c in group if c["detection_timeout"] is not None]
        best = min(recovered, key=lambda c: c["mean_miss_fraction"])
        out[f"{intensity:g}"] = {
            "baseline_miss": round(baseline["mean_miss_fraction"], 4),
            "best_recovery_miss": round(best["mean_miss_fraction"], 4),
            "best_detection_timeout": best["detection_timeout"],
            "caught_up": best["caught_up"],
        }
    return out


def run_benchmark() -> dict:
    cells = CHURN_SWEEP.run(
        intensities=INTENSITIES,
        detection_timeouts=DETECTION_TIMEOUTS,
        catchup_latencies=(CATCHUP_LATENCY,),
        trials=TRIALS,
    )
    return {
        "restores_alerts": CHURN_SWEEP.claim(cells),
        "latencies": latency_distributions(),
        "miss_rates": miss_rates(cells),
        "table": CHURN_SWEEP.render(cells),
    }


def format_result(result: dict) -> str:
    lines = [result["table"], ""]
    for intensity, row in result["latencies"].items():
        lines.append(
            f"intensity {intensity}: detection p50/p99 = "
            f"{row['detection_p50']:.1f}/{row['detection_p99']:.1f}, "
            f"MTTR p50/p99 = {row['mttr_p50']:.1f}/{row['mttr_p99']:.1f}, "
            f"missed detections {row['missed_detections']}/{row['crash_windows']}"
        )
    for intensity, row in result["miss_rates"].items():
        lines.append(
            f"intensity {intensity}: missed-alert rate "
            f"{row['baseline_miss']:.3f} (no recovery) -> "
            f"{row['best_recovery_miss']:.3f} "
            f"(detect={row['best_detection_timeout']:g}, "
            f"{row['caught_up']} updates caught up)"
        )
    lines.append(
        "recovery restores alerts: "
        + ("YES" if result["restores_alerts"] else "NO")
    )
    return "\n".join(lines)


def test_membership_sweep(benchmark):
    result = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    save_result("membership", format_result(result))
    assert result["restores_alerts"]
