"""The service pipeline's stage consumers.

Three coroutine stages sit between the socket reader and the result
frame; each is a plain async function over :class:`BoundedQueue`\\ s so
the property suite can assemble pipelines without sockets:

* :func:`route_updates` — fan the ingest stream out to per-CE update
  queues (the feed names the target CE per delivery; real DMs would
  broadcast, and lossy front links would produce exactly such per-CE
  streams).
* :func:`ce_replica` — one per CE: a stateful online consumer wrapping
  a :class:`~repro.core.evaluator.ConditionEvaluator`; every alert it
  raises goes into the **shared** alert queue as a plain
  ``(ce_index, alert, ingest_ns)`` tuple.
* :func:`ad_merge` — the AD-side consumer.  All CEs fan into one
  bounded queue (a per-CE queue k-way merge can deadlock: the merger
  awaits one CE's head while another CE blocks on its own full queue
  and the router blocks behind *it*); the merger files each arrival
  into its CE's FIFO, releases CE heads in recorded stamp order,
  filters online through the AD algorithm and renders each displayed
  alert's canonical line.

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
from typing import TYPE_CHECKING, AsyncIterator, Awaitable, Callable

from repro.core.alert import Alert
from repro.core.serialization import alert_canonical_line
from repro.core.update import Update
from repro.service.queues import CLOSE, BoundedQueue
from repro.service.runtime import FeedMismatchError

if TYPE_CHECKING:
    from repro.props.fold import VerdictFold

__all__ = [
    "MergeResult",
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

    #: The re-established arrival stream (input to the AD filter).
    arrivals: list[Alert] = field(default_factory=list)
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


async def ad_merge(
    algorithm,
    stamps: tuple[tuple[tuple[float, int], ...], ...],
    alerts: BoundedQueue,
    *,
    clock: Callable[[], int] = time.monotonic_ns,
    fold: VerdictFold | None = None,
) -> MergeResult:
    """Re-establish arrival order and filter online through the AD.

    The total arrival order is the feed's stamps ordered by ``(time,
    global_index)``, which is unique.  Back links are FIFO, so each CE's
    items reach the shared queue in its own stamp order, but the CEs
    interleave in whatever order their tasks ran.  Each item waits in
    its CE's FIFO; a k-entry heap of every CE's next recorded stamp
    names the CE whose head comes next, and heads are released while
    that CE has one waiting.  The AD therefore sees exactly the stamp
    order, independent of task scheduling, at O(log k) per release.
    Consumes one CLOSE per CE, then verifies that every stamp was
    released and nothing is left waiting.

    After each batch, past every latency clock it read, the batch's
    displayed alerts are rendered and, with a ``fold``, folded together
    with whatever the CEs received meanwhile.
    """
    result = MergeResult()
    arrivals = result.arrivals
    lines = result.lines
    latencies = result.display_latencies_ns
    offer = algorithm.offer
    waiting: list[deque] = [deque() for _ in stamps]
    upcoming = [iter(per_ce) for per_ce in stamps]
    #: ``(next unreleased stamp, ce_index)`` of every CE with stamps left.
    heads = [(next(it), ce) for ce, it in enumerate(upcoming) if stamps[ce]]
    heapify(heads)
    buffered = 0
    closes = 0
    while closes < len(stamps):
        shown: list[Alert] = []
        for item in await alerts.get_many():
            if item is CLOSE:
                closes += 1
                continue
            waiting[item[0]].append(item)
            buffered += 1
            if buffered > result.peak_reorder:
                result.peak_reorder = buffered
            while heads:
                ce_index = heads[0][1]
                queue = waiting[ce_index]
                if not queue:
                    break
                _, alert, ingest_ns = queue.popleft()
                buffered -= 1
                stamp = next(upcoming[ce_index], None)
                if stamp is None:
                    heappop(heads)
                else:
                    heapreplace(heads, (stamp, ce_index))
                arrivals.append(alert)
                if offer(alert):
                    latencies.append(clock() - ingest_ns)
                    shown.append(alert)
        lines += map(alert_canonical_line, shown)
        if fold is not None:
            fold.display(shown)
            fold.settle()
    expected = sum(map(len, stamps))
    if len(arrivals) != expected or buffered:
        raise FeedMismatchError(
            f"merge drained after releasing {len(arrivals)}/{expected} stamped "
            f"alerts ({buffered} stranded in the reorder buffer)"
        )
    return result
