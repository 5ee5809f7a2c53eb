"""Run metrics: loss, alert volumes, and alert-delivery statistics.

Besides the three formal properties, the benchmarks report operational
metrics — how many updates were lost, how many alerts each stage saw, and
(for the availability experiment motivating Figure 1) whether the *ground
truth* alerts were delivered to the user at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.components.system import RunResult
from repro.core.alert import alert_identity_set
from repro.core.reference import ground_truth_alerts

__all__ = ["RunMetrics", "DeliveryStats", "collect_metrics", "delivery_stats"]


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


@dataclass(frozen=True)
class DeliveryStats:
    """Ground-truth alert delivery for the availability experiment.

    ``expected`` is the number of alerts an ideal system — one CE, no
    losses, no downtime — would have raised over the DM's full output;
    ``delivered`` counts how many of those identities reached the user
    (see :func:`~repro.core.reference.ground_truth_alerts`).
    """

    expected: int
    delivered: int
    extraneous: int

    @property
    def missed(self) -> int:
        return self.expected - self.delivered

    @property
    def miss_fraction(self) -> float:
        if self.expected == 0:
            return 0.0
        return self.missed / self.expected


def delivery_stats(run: RunResult) -> DeliveryStats:
    """Compare displayed alerts against the ideal system's alerts."""
    expected = alert_identity_set(
        alert for _, alert in ground_truth_alerts(run.condition, run.sent_log)
    )
    displayed = frozenset(run.displayed_keys)
    return DeliveryStats(
        expected=len(expected),
        delivered=len(expected & displayed),
        extraneous=len(displayed - expected),
    )
