"""Per-run alert-quality metrics against the single-replica ground truth.

This is the repository's one ground truth: the availability experiment,
the chaos and churn sweeps' missed-alert columns, notification latency
and the quality sweep all read it.  The ideal system is one co-located
CE fed the merged DM broadcast log — no loss, no downtime.  Every alert
that system raises is a real-world *event*, keyed by its head-seqno vector
(:func:`~repro.core.alert.identity_event_key`) and stamped with the
broadcast time of the update that triggered it.

Displayed alerts are then classified event by event:

* **detection** — the first displayed alert carrying an expected event
  key; its latency sample is display time − trigger time;
* **duplicate** — a further displayed alert re-carrying an already
  detected key (two CEs reporting the same occurrence through different
  histories — exactly the near-duplicates identity-based AD-1 cannot
  see);
* **false alert** — a displayed alert whose event key the ideal system
  never produced (a lossy replica hallucinating a trigger through a
  gapped history).

Comparing identity sets cannot distinguish a re-detection from new
information; the event-keyed view can, which is what makes
precision/duplicate-rate meaningful per AD algorithm.  For a degree-1
condition an event key and an identity are in bijection, so there the
two views count the same misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.components.system import RunResult
from repro.core.alert import identity_event_key
from repro.core.condition import compile_condition
from repro.core.update import Update

__all__ = [
    "AlertQuality",
    "alert_quality",
    "ground_truth_events",
]


@dataclass(frozen=True)
class AlertQuality:
    """Event-keyed quality of one run's displayed alert sequence."""

    #: Events the ideal single-replica system raised.
    expected: int
    #: Expected events detected at least once.
    detected: int
    #: Displayed alerts re-carrying an already-detected event key.
    duplicates: int
    #: Displayed alerts whose event key the ideal system never raised.
    false_alerts: int
    #: Total alerts displayed (= detected + duplicates + false_alerts).
    displayed: int
    #: Alerts the AD filtered out.
    filtered: int
    #: Alerts that arrived at the AD (= displayed + filtered).
    arrivals: int
    #: display time − trigger time per detection, in arrival order.
    latency_samples: tuple[float, ...]

    @property
    def missed(self) -> int:
        return self.expected - self.detected

    @property
    def precision(self) -> float:
        """Fraction of displayed alerts that were first detections."""
        if self.displayed == 0:
            return 1.0
        return self.detected / self.displayed

    @property
    def recall(self) -> float:
        """Fraction of expected events detected at least once."""
        if self.expected == 0:
            return 1.0
        return self.detected / self.expected

    def as_dict(self) -> dict:
        """JSON-safe digest carried on ``PropertyReport.quality``."""
        return {
            "expected": self.expected,
            "detected": self.detected,
            "missed": self.missed,
            "duplicates": self.duplicates,
            "false_alerts": self.false_alerts,
            "displayed": self.displayed,
            "filtered": self.filtered,
            "arrivals": self.arrivals,
            "precision": self.precision,
            "recall": self.recall,
            "latency_samples": list(self.latency_samples),
        }


def ground_truth_events(run: RunResult) -> dict[tuple, float]:
    """Expected event key → trigger time (broadcast time of the trigger).

    The ideal system is one co-located CE — zero latency, no loss, no
    downtime — fed the DMs' merged broadcast log (``run.sent_log``), so a
    trigger time is the broadcast time of the update that fired it; for
    a multi-variable condition this fixes the interleaving to broadcast
    order, which is what such a CE would observe.  It is run without
    building alerts: the history windows are kept as
    :class:`~repro.core.evaluator.ConditionEvaluator` keeps them and
    handed to the same compiled closure, and each trigger's key — the
    condition name and every window's head seqno, the
    :func:`~repro.core.alert.identity_event_key` of the alert the evaluator
    would build — is read straight off them.  Head-seqno vectors are
    unique per trigger (each fire incorporates a fresh seqno in the
    triggering variable), so the mapping is injective.
    """
    condition = run.condition
    holds = compile_condition(condition)
    degrees = condition.degrees
    buffers: list[list[Update]] = [[] for _ in condition.variables]
    windows = {
        var: (buffer, degrees[var])
        for var, buffer in zip(condition.variables, buffers)
    }
    name = condition.name
    events: dict[tuple, float] = {}
    defined = False
    for time, update in run.sent_log:
        window = windows.get(update.varname)
        if window is None:
            continue
        buffer, degree = window
        buffer.insert(0, update)
        if len(buffer) > degree:
            buffer.pop()
        if not defined:
            if any(len(held) < needed for held, needed in windows.values()):
                continue
            defined = True
        if holds(*buffers):
            key = (name, tuple([buffer[0].seqno for buffer in buffers]))
            events.setdefault(key, time)
    return events


def _display_times(run: RunResult) -> list[float]:
    """The AD arrival (display) time of each displayed alert, read through
    the displayed-index column; ValueError unless that column picks a
    subsequence of the arrivals."""
    times = run.ad_arrival_times
    last = -1
    for index in run.displayed_arrivals:
        if not last < index < len(times):
            raise ValueError(
                f"displayed is not a subsequence of arrivals: arrival "
                f"{index} after {last} of {len(times)}"
            )
        last = index
    return [times[index] for index in run.displayed_arrivals]


def alert_quality(run: RunResult) -> AlertQuality:
    """Classify one run's displayed alerts against the ground truth, on
    their identity keys."""
    expected = ground_truth_events(run)
    variables = run.condition.variables
    detected: set[tuple] = set()
    duplicates = 0
    false_alerts = 0
    latencies: list[float] = []
    for identity, time in zip(run.displayed_keys, _display_times(run)):
        key = identity_event_key(identity, variables)
        trigger = expected.get(key)
        if trigger is None:
            false_alerts += 1
        elif key in detected:
            duplicates += 1
        else:
            detected.add(key)
            latencies.append(time - trigger)
    return AlertQuality(
        expected=len(expected),
        detected=len(detected),
        duplicates=duplicates,
        false_alerts=false_alerts,
        displayed=len(run.displayed_arrivals),
        filtered=len(run.arrival_ces) - len(run.displayed_arrivals),
        arrivals=len(run.arrival_ces),
        latency_samples=tuple(latencies),
    )
