"""The AD side of the service, and the queue stages around it.

:class:`StampMerge` is the stamp merge and the AD filter as one
synchronous object: it files each alert a CE raised into that CE's
FIFO, releases CE heads in recorded stamp order through a k-entry heap,
hands each released alert's key to the AD's decision and reads the
latency clock for every alert it displays.  It is agnostic to what it
files: ``repro serve`` calls it from its socket reader, one raised alert
at a time, with the identity key a CE step returned and the line inputs
of the alert that was never built, and decides with
:meth:`~repro.displayers.base.ADAlgorithm.decide`; :func:`ad_merge`
files :class:`~repro.core.alert.Alert` objects and decides with
:meth:`~repro.displayers.base.ADAlgorithm.offer`.  On the served path
only the CE step and the wait for an earlier stamp lie between a
delivery and its display.

Three coroutine stages put the same steps on
:class:`~repro.service.queues.BoundedQueue`\\ s, so the property suite
and the benchmark's traced harness can assemble a queue pipeline
without sockets:

* :func:`route_updates` — fan the ingest stream out to per-CE update
  queues (the feed names the target CE per delivery; real DMs would
  broadcast, and lossy front links would produce exactly such per-CE
  streams).
* :func:`ce_replica` — one per CE: a stateful online consumer wrapping
  a :class:`~repro.core.evaluator.ConditionEvaluator`; every alert it
  raises goes into the **shared** alert queue as a plain
  ``(ce_index, alert, ingest_ns)`` tuple.
* :func:`ad_merge` — a ``get_many`` loop over one :class:`StampMerge`.
  All CEs fan into one bounded queue (a per-CE queue k-way merge can
  deadlock: the merger awaits one CE's head while another CE blocks on
  its own full queue and the router blocks behind *it*).

Given a :class:`~repro.props.fold.VerdictFold`, the CE replicas hand it
every batch they incorporated and the merger folds each batch it took
— the updates the CEs received since, and the alerts it displayed — so
the verdicts are decided as the feed streams and the end of the feed
only flushes.

Every stage moves a *batch* per suspension — ``get_many()`` hands it
whatever its queue holds (at most the queue's capacity, in queue order),
it loops over that in plain Python and forwards with one ``put_many``
per downstream queue — so the per-delivery cost is the loop body, not a
pair of coroutine calls per hop.

End-of-stream uses the queue CLOSE sentinel: the router closes every
CE queue, each CE closes the shared alert queue once, and the merger
exits after seeing one CLOSE per CE — so every item enqueued before a
close is consumed first, which is the graceful-drain guarantee.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, Any, AsyncIterator, Awaitable, Callable

from repro.core.alert import Alert
from repro.core.serialization import alert_canonical_line
from repro.core.update import Update
from repro.service.queues import CLOSE, BoundedQueue
from repro.service.runtime import FeedMismatchError

if TYPE_CHECKING:
    from repro.props.fold import VerdictFold

__all__ = [
    "MergeResult",
    "StampMerge",
    "route_updates",
    "ce_replica",
    "ad_merge",
]

#: Optional test hook: awaited before each update is evaluated, letting
#: property tests impose arbitrary per-CE pacing (slow consumers).
Pace = Callable[[int, Update], Awaitable[None]]


async def _batches(queue: BoundedQueue) -> AsyncIterator[list]:
    """A single-producer queue's items, a batch at a time, up to its CLOSE
    (with one producer the sentinel is the last thing ever queued)."""
    while True:
        batch = await queue.get_many()
        if batch[-1] is CLOSE:
            del batch[-1]
            if batch:
                yield batch
            return
        yield batch


@dataclass
class MergeResult:
    """What the AD-side consumer saw."""

    #: The re-established arrival stream: the filed keys, each the input
    #: of one AD decision.
    arrivals: list = field(default_factory=list)
    #: The canonical line of each displayed alert, rendered as the merge
    #: batch that displayed it ended.
    lines: list[str] = field(default_factory=list)
    #: Update→display latency per displayed alert, in nanoseconds.
    display_latencies_ns: list[int] = field(default_factory=list)
    #: Largest reorder buffer the merge ever held (stamp-skew bound).
    peak_reorder: int = 0


async def route_updates(
    ingest: BoundedQueue, ce_queues: list[BoundedQueue]
) -> None:
    """Fan ``(ce_index, update, ingest_ns)`` items out to per-CE queues."""
    async for batch in _batches(ingest):
        per_ce: list[list] = [[] for _ in ce_queues]
        for ce_index, update, ingest_ns in batch:
            if not 0 <= ce_index < len(ce_queues):
                raise FeedMismatchError(
                    f"delivery targets CE index {ce_index}; the feed declares "
                    f"{len(ce_queues)} CEs"
                )
            per_ce[ce_index].append((update, ingest_ns))
        for queue, routed in zip(ce_queues, per_ce):
            if routed:
                await queue.put_many(routed)
    for queue in ce_queues:
        await queue.close()


async def ce_replica(
    ce_index: int,
    evaluator,
    stamps: tuple[tuple[float, int], ...],
    updates: BoundedQueue,
    alerts: BoundedQueue,
    *,
    pace: Pace | None = None,
    fold: VerdictFold | None = None,
) -> None:
    """Evaluate one CE's update stream; emit ``(ce_index, alert,
    ingest_ns)`` items, ``ingest_ns`` being when the triggering update
    entered the service (the start of the update→display latency).

    ``evaluator`` is a fresh :class:`ConditionEvaluator` (passed in, not
    constructed, so tests can inspect it afterwards).  Back links are
    FIFO, so the k-th item stands for the CE's k-th recorded stamp.
    Raising more or fewer alerts than the feed recorded stamps for is a
    conformance failure — it means the deliveries do not reproduce the
    run.  Each batch the evaluator took goes to ``fold`` once its alerts
    are on their way.
    """
    recorded = len(stamps)
    position = 0
    async for batch in _batches(updates):
        raised: list[tuple[int, Alert, int]] = []
        for update, ingest_ns in batch:
            if pace is not None:
                await pace(ce_index, update)
            alert = evaluator.ingest(update)
            if alert is not None:
                if position >= recorded:
                    raise FeedMismatchError(
                        f"CE{ce_index + 1} raised alert #{position + 1} but the "
                        f"feed recorded only {recorded} arrival stamps"
                    )
                raised.append((ce_index, alert, ingest_ns))
                position += 1
        if raised:
            await alerts.put_many(raised)
        if fold is not None:
            fold.receive(ce_index, [update for update, _ in batch])
    if position != recorded:
        raise FeedMismatchError(
            f"CE{ce_index + 1} drained after {position} alerts; the feed "
            f"recorded {recorded}"
        )
    await alerts.close()


class StampMerge:
    """Re-establish arrival order and filter online through the AD, one
    alert at a time.

    The total arrival order is the feed's stamps ordered by ``(time,
    global_index)``, which is unique.  Back links are FIFO, so each CE's
    alerts come in its own stamp order, but the CEs interleave however
    they were scheduled.  Each alert waits in its CE's FIFO; a k-entry
    heap of every CE's next recorded stamp names the CE whose head comes
    next, and heads are released while that CE has one waiting.  The AD
    therefore sees exactly the stamp order, independent of scheduling,
    at O(log k) per release.

    An alert is filed as a ``key`` and a ``payload``, and neither is
    looked into: ``decide(key)`` is the AD's decision on a released
    alert, and the payload of each displayed one is handed back by
    :meth:`settle`.

    :meth:`file` takes an alert and leaves a CE that sends more alerts
    than it has stamps to :meth:`end`, which reports it stranded (the
    queue stages' contract, pinned by the merge differential);
    :meth:`raised`, the server's step, names that CE at its first extra
    alert.  :meth:`settle` hands back what was displayed since the last
    settle, for its caller to render off the latency clocks; :meth:`end`
    verifies that every stamp was released and nothing is left waiting.
    """

    def __init__(
        self,
        decide: Callable[[Any], bool],
        stamps: tuple[tuple[tuple[float, int], ...], ...],
        *,
        clock: Callable[[], int] = time.monotonic_ns,
    ) -> None:
        self.result = MergeResult()
        #: Per CE, the alerts :meth:`raised` took from it.
        self.raised_per_ce = [0] * len(stamps)
        self._stamps = stamps
        self._decide = decide
        self._clock = clock
        self._waiting: list[deque] = [deque() for _ in stamps]
        self._upcoming = [iter(per_ce) for per_ce in stamps]
        #: ``(next unreleased stamp, ce_index)`` of every CE with stamps left.
        heads = [(next(it), ce) for ce, it in enumerate(self._upcoming) if stamps[ce]]
        heapify(heads)
        self._heads = heads
        #: Filed and not yet released.
        self._buffered = 0
        #: Payloads displayed since the last :meth:`settle`.
        self._shown: list = []

    def raised(self, ce_index: int, key, payload, ingest_ns: int) -> None:
        """CE ``ce_index`` raised an alert: file it, unless the feed
        recorded no stamp for it — which is a conformance failure, since
        the deliveries then do not reproduce the run."""
        count = self.raised_per_ce[ce_index]
        recorded = len(self._stamps[ce_index])
        if count >= recorded:
            raise FeedMismatchError(
                f"CE{ce_index + 1} raised alert #{count + 1} but the feed "
                f"recorded only {recorded} arrival stamps"
            )
        self.raised_per_ce[ce_index] = count + 1
        self.file(ce_index, key, payload, ingest_ns)

    def file(self, ce_index: int, key, payload, ingest_ns: int) -> None:
        """File an alert in its CE's FIFO and release every head now due;
        ``ingest_ns`` is when the triggering update entered the service
        (the start of the update→display latency)."""
        waiting = self._waiting
        waiting[ce_index].append((key, payload, ingest_ns))
        result = self.result
        buffered = self._buffered + 1
        if buffered > result.peak_reorder:
            result.peak_reorder = buffered
        heads = self._heads
        upcoming = self._upcoming
        while heads:
            ce_index = heads[0][1]
            queue = waiting[ce_index]
            if not queue:
                break
            key, payload, ingest_ns = queue.popleft()
            buffered -= 1
            stamp = next(upcoming[ce_index], None)
            if stamp is None:
                heappop(heads)
            else:
                heapreplace(heads, (stamp, ce_index))
            result.arrivals.append(key)
            if self._decide(key):
                result.display_latencies_ns.append(self._clock() - ingest_ns)
                self._shown.append(payload)
        self._buffered = buffered

    def settle(self) -> list:
        """The payloads of the alerts displayed since the last settle, in
        display order."""
        shown = self._shown
        self._shown = []
        return shown

    def end(self) -> MergeResult:
        """The merge's result, once every stamp was released and nothing
        is left waiting (else :class:`FeedMismatchError`)."""
        released = len(self.result.arrivals)
        expected = sum(map(len, self._stamps))
        if released != expected or self._buffered:
            raise FeedMismatchError(
                f"merge drained after releasing {released}/{expected} stamped "
                f"alerts ({self._buffered} stranded in the reorder buffer)"
            )
        return self.result


async def ad_merge(
    algorithm,
    stamps: tuple[tuple[tuple[float, int], ...], ...],
    alerts: BoundedQueue,
    *,
    clock: Callable[[], int] = time.monotonic_ns,
    fold: VerdictFold | None = None,
) -> MergeResult:
    """:class:`StampMerge` over the shared alert queue, offering alerts.

    Files every ``(ce_index, alert, ingest_ns)`` item it takes and
    settles once per ``get_many`` batch, past every latency clock the
    batch read: renders what the batch displayed and, with a ``fold``,
    folds it.  Consumes one CLOSE per CE, then ends the merge.
    """
    merge = StampMerge(algorithm.offer, stamps, clock=clock)
    file = merge.file
    lines = merge.result.lines
    closes = 0
    while closes < len(stamps):
        for item in await alerts.get_many():
            if item is CLOSE:
                closes += 1
            else:
                ce_index, alert, ingest_ns = item
                file(ce_index, alert, alert, ingest_ns)
        shown = merge.settle()
        lines.extend(map(alert_canonical_line, shown))
        if fold is not None:
            fold.display([alert.identity() for alert in shown])
            fold.settle()
    return merge.end()
