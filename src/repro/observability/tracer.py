"""Tracer implementations — where emitted events go.

The kernel and the instrumented components hold a single optional
``tracer`` per run and call ``tracer.emit(...)`` only when one is
attached, so a run without observability pays one attribute check per
instrumentation point and nothing else.  Implementations here cover the
three consumption modes the observability layer needs:

* :class:`CountersTracer` — per-stage/kind/node counters, cheap enough
  to leave on across thousands of trials; conserved totals are
  cross-validated against :func:`repro.analysis.metrics.collect_metrics`
  in the property suite.
* :class:`MemoryTracer` / :class:`JsonlTraceRecorder` — full event
  capture, for replay equality checks and JSONL trace artifacts.

That is three levels of detail — off (``tracer=None``), counters, full —
and a tracer says which it needs.  A tracer with ``order_free = True``
promises that its result does not depend on the order, times or payloads
of events; the array kernel then serves it through ``count(stage, kind,
node, reason=None, n=1)`` alone, folding whole batches into one call,
and never calls its ``emit``.  Any other tracer gets the ordered
``repro.trace/1`` stream, which only the object kernel emits.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Protocol, runtime_checkable

from repro.observability.events import TraceEvent

__all__ = [
    "Tracer",
    "NullTracer",
    "MemoryTracer",
    "CountersTracer",
    "ReasonCountersTracer",
]


@runtime_checkable
class Tracer(Protocol):
    """Anything that can receive instrumentation events."""

    def emit(
        self, time: float, stage: str, kind: str, node: str, **data: Any
    ) -> None: ...


class NullTracer:
    """Swallows every event — an *attached but inert* tracer.

    Useful for measuring the cost of the emission path itself (payload
    construction included) as opposed to the disabled path, where the
    ``tracer is None`` check short-circuits before any payload is built.
    """

    def emit(
        self, time: float, stage: str, kind: str, node: str, **data: Any
    ) -> None:
        return None


class MemoryTracer:
    """Records every event, in emission order, as :class:`TraceEvent`s."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(
        self, time: float, stage: str, kind: str, node: str, **data: Any
    ) -> None:
        self.events.append(TraceEvent(time, stage, kind, node, data))

    def event_lines(self) -> list[str]:
        """Canonical JSONL rendering of the captured stream."""
        return [event.json_line() for event in self.events]


class CountersTracer:
    """Per-stage, per-node event counters.

    Keys are ``"stage/kind/node"`` strings (flat, picklable, mergeable),
    e.g. ``"link/drop/DM-x->CE1"`` or ``"ad/display/AD"``.  Payloads are
    discarded; only occurrence counts are kept, which makes this tracer
    cheap enough for bulk trial batches.
    """

    #: Counts are a fold: no event order, time or payload is needed.
    order_free = True

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def emit(
        self, time: float, stage: str, kind: str, node: str, **data: Any
    ) -> None:
        self.count(stage, kind, node, data.get("reason"))

    def count(
        self, stage: str, kind: str, node: str,
        reason: object | None = None, n: int = 1,
    ) -> None:
        """The order-free hook: ``n`` occurrences of one event key at once.

        ``reason`` is the event's reason payload or anything whose
        ``str()`` is it: the array kernel passes AD rejection reasons
        unrendered, so a tracer that ignores them (this one) never pays
        for the text.
        """
        if n:
            self.counts[f"{stage}/{kind}/{node}"] += n

    def as_dict(self) -> dict[str, int]:
        """A plain sorted dict — the picklable cross-process form."""
        return dict(sorted(self.counts.items()))

    def merge(self, counters: "CountersTracer | dict[str, int]") -> None:
        """Fold another tracer's (or ``as_dict``'s) counts into this one.

        The service runtime keeps one tracer per connection pipeline and
        merges them into the server-lifetime aggregate on drain.
        """
        if isinstance(counters, CountersTracer):
            counters = counters.counts
        self.counts.update(counters)

    def total(self, stage: str, kind: str) -> int:
        """Sum of ``stage/kind/*`` over every node."""
        prefix = f"{stage}/{kind}/"
        return sum(
            count for key, count in self.counts.items()
            if key.startswith(prefix)
        )

    def stage_summary(self) -> dict[str, dict[str, int]]:
        """``{stage: {kind: count}}`` aggregated over nodes."""
        summary: dict[str, dict[str, int]] = {}
        for key, count in sorted(self.counts.items()):
            stage, kind, _node = key.split("/", 2)
            summary.setdefault(stage, {})
            summary[stage][kind] = summary[stage].get(kind, 0) + count
        return summary


class ReasonCountersTracer(CountersTracer):
    """Counters keyed by ``"stage/kind:reason/node"`` when a reason exists.

    The flat :class:`CountersTracer` keys discard event payloads, which
    erases exactly the dimension behaviour-coverage cares about: *why* a
    datagram was dropped (``loss`` vs ``burst`` vs ``outage``) or why the
    AD rejected an alert (the per-algorithm ``rejection_reason``).  This
    variant splices the event's ``reason`` payload field into the kind
    segment, so ``link/drop/...`` fans out into ``link/drop:loss/...``,
    ``link/drop:burst/...`` etc. while reason-less events keep their
    plain ``stage/kind/node`` keys.  Everything else (merging, totals,
    picklability) is inherited.

    Reasons are truncated to their *class* — the text before the first
    colon — because AD rejection reasons embed instance detail after it
    (``"seqno regression: a.seqno.x=13 <= ..."``): a counter per
    distinct seqno pair would be as unbounded as the runs themselves,
    and coverage signatures built on these keys would degenerate into
    run identities.
    """

    def count(
        self, stage: str, kind: str, node: str,
        reason: object | None = None, n: int = 1,
    ) -> None:
        if reason is not None:
            kind = f"{kind}:{str(reason).split(':', 1)[0]}"
        super().count(stage, kind, node, n=n)
