"""Bounded inter-stage queues with backpressure accounting.

These queues join the queue stages of :mod:`repro.service.consumers`
(router → CE replicas → AD merge), which the property suite and the
benchmark's traced run assemble; ``repro serve`` steps each socket read
in its reader task and crosses none of them.  Within such a pipeline the
bound is the load-leveling mechanism: a slow downstream stage fills its
queue, the ``put`` side suspends, and the stall propagates hop by hop
back to the producer.  No stage ever buffers unboundedly and nothing is
dropped.

The queue owns its deque and its waiter lists (it is the
``asyncio.Queue`` waiter protocol, not a wrapper around one) so that a
stage can move a whole batch per suspension: :meth:`BoundedQueue.put_many`
takes what fits and suspends for the rest, :meth:`BoundedQueue.get_many`
returns everything queued.  Capacity counts *items* either way — a batch
larger than the bound trickles through it, it never overshoots it.  On
top of that the queue adds:

* a **CLOSE sentinel** protocol — the producer's end-of-stream marker,
  forwarded stage by stage so the pipeline drains in order (every item
  enqueued before the close is consumed before the consumer exits);
* **high-water throttling observability** — when occupancy crosses the
  high-water mark the queue emits ``service/throttle-on/<name>`` through
  the run's tracer (and ``throttle-off`` when it falls back below the
  low-water mark), so tests and the benchmark can see backpressure
  engage without measuring timings;
* per-queue :class:`QueueStats` (puts, gets, peak occupancy, throttle
  episodes) — merged into the service's counters at drain time.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

__all__ = ["CLOSE", "QueueStats", "BoundedQueue"]


class _Close:
    """End-of-stream sentinel; identity-compared, never data."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<CLOSE>"


#: The unique end-of-stream marker producers enqueue when done.
CLOSE: Any = _Close()


@dataclass
class QueueStats:
    """Lifetime accounting for one queue (CLOSE sentinels excluded)."""

    puts: int = 0
    gets: int = 0
    peak: int = 0
    #: Number of times occupancy rose to the high-water mark.
    throttle_episodes: int = 0
    #: Number of times a producer had to suspend on a full queue: once
    #: per blocked ``put``, once per suspension of a ``put_many``.
    blocked_puts: int = 0

    def as_counters(self, name: str) -> dict[str, int]:
        """Flat ``service/<kind>/<name>`` counters, zeros elided."""
        counters = {
            f"service/put/{name}": self.puts,
            f"service/get/{name}": self.gets,
            f"service/peak/{name}": self.peak,
            f"service/throttle-on/{name}": self.throttle_episodes,
            f"service/blocked-put/{name}": self.blocked_puts,
        }
        return {key: value for key, value in counters.items() if value}


def _wake(waiters: deque[asyncio.Future[None]]) -> None:
    """Wake the first waiter still waiting (cancelled ones are skipped:
    their tasks are gone)."""
    while waiters:
        waiter = waiters.popleft()
        if not waiter.done():
            waiter.set_result(None)
            return


async def _wait(waiters: deque[asyncio.Future[None]]) -> None:
    """Suspend until woken.  Callers re-test their condition afterwards: a
    wake-up is a hint that the queue changed, not a reservation."""
    waiter = asyncio.get_running_loop().create_future()
    waiters.append(waiter)
    try:
        await waiter
    except BaseException:
        waiter.cancel()  # a no-op if it was woken already
        try:
            waiters.remove(waiter)
        except ValueError:
            pass
        if not waiter.cancelled():
            # Woken and cancelled in the same turn (TaskGroup teardown):
            # the wake-up belongs to whoever is next in line.
            _wake(waiters)
        raise


class BoundedQueue:
    """A FIFO with a hard item capacity, bulk transfer and throttle telemetry.

    ``high_water`` defaults to the capacity: throttling is then reported
    exactly when a ``put`` finds the queue full.  A lower mark reports
    earlier — the service uses ~¾ capacity so the benchmark can observe
    load-leveling before the hard stall.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        *,
        high_water: int | None = None,
        tracer: Any | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.high_water = capacity if high_water is None else high_water
        if not 1 <= self.high_water <= capacity:
            raise ValueError(
                f"high_water must be in [1, {capacity}], got {self.high_water}"
            )
        # Hysteresis: stop reporting only once clearly below the mark.
        self.low_water = max(0, self.high_water // 2)
        self.tracer = tracer
        self.stats = QueueStats()
        self._items: deque[Any] = deque()
        #: CLOSE sentinels currently queued: they hold a slot like any
        #: item but stay out of the stats.
        self._closes = 0
        self._getters: deque[asyncio.Future[None]] = deque()
        self._putters: deque[asyncio.Future[None]] = deque()
        self._throttled = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def throttled(self) -> bool:
        """True while occupancy is at/above high-water (with hysteresis)."""
        return self._throttled

    def _emit(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(0.0, "service", kind, self.name)

    # -- bookkeeping ---------------------------------------------------------
    def _grew(self) -> None:
        """After data items were appended (a bare CLOSE moves neither the
        peak nor the throttle)."""
        size = len(self._items)
        if size > self.stats.peak:
            self.stats.peak = size
        if size >= self.high_water and not self._throttled:
            self._throttled = True
            self.stats.throttle_episodes += 1
            self._emit("throttle-on")
        self._wake_waiters()

    def _shrank(self) -> None:
        """After items were taken."""
        if self._throttled and len(self._items) <= self.low_water:
            self._throttled = False
            self._emit("throttle-off")
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        """One getter if anything is queued, one putter if there is room.
        Whoever changed the queue calls this, the woken included — so a
        producer that leaves room, or a consumer that leaves items, passes
        the turn on down its own line."""
        if self._getters and self._items:
            _wake(self._getters)
        if self._putters and len(self._items) < self.capacity:
            _wake(self._putters)

    # -- producers -----------------------------------------------------------
    async def put(self, item: Any) -> None:
        """Enqueue, suspending while the queue is full (backpressure)."""
        if item is CLOSE:
            return await self.close()
        items = self._items
        if len(items) >= self.capacity:
            self.stats.blocked_puts += 1
        self.stats.puts += 1
        while len(items) >= self.capacity:
            await _wait(self._putters)
        items.append(item)
        self._grew()

    async def put_many(self, batch: Sequence[Any]) -> None:
        """Enqueue ``batch`` in order: take what fits, suspend for the rest.

        The bound still counts items, so a batch larger than the free
        room (or than the whole queue) is handed over in slices as the
        consumer makes room, and occupancy never exceeds ``capacity``.
        Each suspension counts one ``blocked_puts``.  Data items only —
        the end-of-stream sentinel goes through :meth:`close`.
        """
        items = self._items
        stats = self.stats
        stats.puts += len(batch)
        offset = 0
        while offset < len(batch):
            room = self.capacity - len(items)
            if room <= 0:
                stats.blocked_puts += 1
                await _wait(self._putters)
                continue
            items.extend(batch[offset:offset + room])
            offset += room
            self._grew()

    async def close(self) -> None:
        """Enqueue the end-of-stream sentinel (still subject to the bound)."""
        items = self._items
        while len(items) >= self.capacity:
            await _wait(self._putters)
        items.append(CLOSE)
        self._closes += 1
        self._wake_waiters()

    # -- consumers -----------------------------------------------------------
    async def get(self) -> Any:
        items = self._items
        while not items:
            await _wait(self._getters)
        item = items.popleft()
        if item is CLOSE:
            self._closes -= 1
        else:
            self.stats.gets += 1
        self._shrank()
        return item

    async def get_many(self) -> list[Any]:
        """Everything queued, in order — at least one item; suspends while
        the queue is empty.  A CLOSE may sit anywhere in the batch when
        several producers share the queue (one sentinel each)."""
        items = self._items
        while not items:
            await _wait(self._getters)
        batch = list(items)
        items.clear()
        self.stats.gets += len(batch) - self._closes
        self._closes = 0
        self._shrank()
        return batch
