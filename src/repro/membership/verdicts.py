"""Churn-aware verdict context: was the run below quorum when it failed?

A violated property means something different while half the replica
set is state-incomplete than in steady state — the paper's guarantees
are stated for the full replica set, so the chaos sweep must separate
"violated while below quorum" (the guarantee was degraded, by design)
from "violated steady-state" (a real loss under churn).  This module
folds a run's :class:`~repro.membership.registry.MembershipPlan` into a
small JSON-safe churn summary that rides on
:class:`~repro.props.report.PropertyReport` across process boundaries;
:class:`~repro.props.report.PropertyTally` splits violations on it.
"""

from __future__ import annotations

__all__ = ["churn_summary"]


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def churn_summary(run) -> dict:
    """JSON-safe membership digest of one completed run.

    ``run`` is a :class:`~repro.components.system.RunResult` whose
    ``membership`` field carries the executed plan.
    """
    plan = run.membership
    recoveries = plan.recoveries
    return {
        "below_quorum": plan.degraded_time > 0.0,
        "degraded_fraction": plan.degraded_fraction,
        "recoveries": len(recoveries),
        "recovered": sum(1 for e in recoveries if e.successful),
        "aborted": sum(1 for e in recoveries if e.aborted),
        "unrecovered": sum(
            1 for e in recoveries if not e.successful and not e.aborted
        ),
        "caught_up": sum(run.caught_up),
        "missed_detections": plan.missed_detections,
        "mean_detection_latency": _mean(plan.detection_latencies),
        "mean_time_to_recover": _mean(plan.recovery_latencies),
    }
