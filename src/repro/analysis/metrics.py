"""Run metrics: update and alert volumes per stage.

Besides the three formal properties, a run reports operational metrics —
how many updates each CE received and how many alerts each stage saw.
Whether the ground-truth alerts reached the user at all, and when, is
:func:`repro.quality.metrics.alert_quality`'s business.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.components.system import RunResult

__all__ = ["RunMetrics", "collect_metrics"]


@dataclass(frozen=True)
class RunMetrics:
    """Volume counters for one run."""

    updates_sent: int
    updates_received_per_ce: tuple[int, ...]
    alerts_generated_per_ce: tuple[int, ...]
    alerts_arrived: int
    alerts_displayed: int
    alerts_filtered: int


def collect_metrics(run: RunResult) -> RunMetrics:
    return RunMetrics(
        updates_sent=sum(len(v) for v in run.sent.values()),
        updates_received_per_ce=tuple(len(t) for t in run.received),
        alerts_generated_per_ce=tuple(len(keys) for keys in run.ce_keys),
        alerts_arrived=len(run.arrival_ces),
        alerts_displayed=len(run.displayed_arrivals),
        alerts_filtered=len(run.arrival_ces) - len(run.displayed_arrivals),
    )
