"""Alert notification latency.

Section 1's full claim is that replication "reduces the probability that
a critical alert will not be delivered **on time** (or at all)".  The
availability experiment measures the "at all" half; this module measures
"on time": for every ground-truth alert (what an ideal co-located CE
would raise), how long after the *triggering broadcast* did the first
matching alert reach the user's display?

With replication, the fastest replica wins each race — so even when no
alert is lost outright, adding CEs shortens the notification tail.
``benchmarks/bench_latency.py`` quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel import mean as _mean, percentiles as _percentiles
from repro.components.system import RunResult
from repro.core.reference import ground_truth_alerts

__all__ = ["NotificationLatency", "LatencyStats", "notification_latencies", "latency_stats"]


@dataclass(frozen=True)
class NotificationLatency:
    """One ground-truth alert's delivery outcome."""

    #: Alert identity (condname + history seqnos).
    identity: tuple
    #: Simulated time of the broadcast that should trigger it.
    triggered_at: float
    #: Simulated time the first matching alert reached the display
    #: (None when the alert never arrived — a miss).
    first_displayed_at: float | None

    @property
    def latency(self) -> float | None:
        if self.first_displayed_at is None:
            return None
        return self.first_displayed_at - self.triggered_at


def notification_latencies(run: RunResult) -> list[NotificationLatency]:
    """Per-ground-truth-alert first-notification latency for one run.

    Ground truth and trigger times come from
    :func:`~repro.core.reference.ground_truth_alerts`.  Matching is by
    alert identity, and "displayed" means it survived the AD's filter.
    """
    # First display time per identity: displayed alerts are a subsequence
    # of arrivals, displayed at their arrival instant.
    display_ids = {id(a) for a in run.displayed}
    first_display: dict[tuple, float] = {}
    for alert, time in zip(run.ad_arrivals, run.ad_arrival_times):
        if id(alert) in display_ids:
            first_display.setdefault(alert.identity(), time)

    return [
        NotificationLatency(
            identity=alert.identity(),
            triggered_at=triggered_at,
            first_displayed_at=first_display.get(alert.identity()),
        )
        for triggered_at, alert in ground_truth_alerts(
            run.condition, run.sent_log
        )
    ]


@dataclass(frozen=True)
class LatencyStats:
    """Aggregate first-notification latency over one or more runs."""

    expected: int
    delivered: int
    mean: float
    median: float
    p95: float

    @property
    def miss_fraction(self) -> float:
        if self.expected == 0:
            return 0.0
        return 1.0 - self.delivered / self.expected


def latency_stats(latencies: list[NotificationLatency]) -> LatencyStats:
    """Summarise a collection of per-alert outcomes."""
    delivered = [entry.latency for entry in latencies if entry.latency is not None]
    if delivered:
        mean = _mean(delivered)
        median, p95 = _percentiles(delivered, (50.0, 95))
    else:
        mean = median = p95 = float("nan")
    return LatencyStats(
        expected=len(latencies),
        delivered=len(delivered),
        mean=mean,
        median=median,
        p95=p95,
    )
