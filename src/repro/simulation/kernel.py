"""Deterministic discrete-event simulation kernel.

The paper's properties are *timing dependent*: the AD merge function M
depends on how the alert streams interleave (Appendix B).  To both explore
that timing space and replay any interesting run exactly, all components
execute on this kernel: a priority queue of timestamped events with a
deterministic total order — events fire in (time, insertion-sequence)
order, so identical seeds always produce identical runs.

The queue holds plain ``(time, seq, event)`` tuples so heap sifting
compares machine floats/ints directly instead of dispatching through
dataclass ``__lt__``.  Cancelled events are discarded lazily: they stay
inert in the heap until they reach the head, and when enough of them
accumulate in a large queue the kernel compacts the heap in one pass.

Observability: attaching a tracer (any object with
``emit(time, stage, kind, node, **data)`` — see
:mod:`repro.observability.tracer`) to :attr:`Kernel.tracer` records every
schedule/fire/cancel/compact as a structured event.  With no tracer
attached — the default — each hot-path operation pays exactly one
attribute load and ``is None`` check.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["Event", "Kernel", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, runaway runs)."""


@dataclass(slots=True)
class Event:
    """A scheduled callback.  Fires in (time, seq) order for determinism."""

    time: float
    seq: int
    action: Callable[[], None]
    note: str = ""
    cancelled: bool = False
    #: Back-reference to the kernel's tracer, set only while tracing is on,
    #: so ``cancel()`` can be observed without the event knowing its kernel.
    tracer: object | None = None

    def cancel(self) -> None:
        """Prevent this event from firing (it stays in the queue inert)."""
        if self.tracer is not None and not self.cancelled:
            self.tracer.emit(
                self.time, "kernel", "cancel", "", seq=self.seq, note=self.note
            )
        self.cancelled = True


#: Queues smaller than this are never compacted — the lazy pop-at-head
#: discipline already handles them, and small unit-test workloads keep
#: exactly the behaviour they had before compaction existed.
_COMPACT_MIN_QUEUE = 1024


class Kernel:
    """Event queue and simulated clock.

    Usage::

        kernel = Kernel()
        kernel.schedule(1.5, lambda: print("fired"), note="demo")
        kernel.run()
    """

    def __init__(self, tracer: object | None = None) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._pushes_since_compact = 0
        #: Optional observability sink (duck-typed; see module docstring).
        self.tracer = tracer

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of not-yet-fired (possibly cancelled) events."""
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], None], note: str = "") -> Event:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, action, note)

    def schedule_at(self, time: float, action: Callable[[], None], note: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = next(self._counter)
        event = Event(time, seq, action, note)
        tracer = self.tracer
        if tracer is not None:
            event.tracer = tracer
            tracer.emit(
                self._now, "kernel", "schedule", "", seq=seq, at=time, note=note
            )
        heapq.heappush(self._queue, (time, seq, event))
        self._pushes_since_compact += 1
        if (
            self._pushes_since_compact >= _COMPACT_MIN_QUEUE
            and len(self._queue) >= _COMPACT_MIN_QUEUE
        ):
            self._maybe_compact()
        return event

    def _maybe_compact(self) -> None:
        """Drop cancelled entries wholesale when they dominate the queue.

        Amortized: the scan runs at most once per ``_COMPACT_MIN_QUEUE``
        pushes, and rebuilds only when at least half the entries are dead.
        """
        self._pushes_since_compact = 0
        queue = self._queue
        live = [entry for entry in queue if not entry[2].cancelled]
        if 2 * len(live) <= len(queue):
            heapq.heapify(live)
            self._queue = live
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    self._now, "kernel", "compact", "",
                    before=len(queue), after=len(live),
                )

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self._now = time
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    time, "kernel", "fire", "", seq=_seq, note=event.note
                )
            event.action()
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> None:
        """Drain the queue, optionally stopping at simulated time ``until``.

        ``max_events`` guards against runaway event loops (e.g. a component
        rescheduling itself unconditionally): exceeding it raises
        SimulationError instead of hanging.
        """
        executed = 0
        # Re-read the queue each iteration: a fired callback may schedule
        # enough events to trigger compaction, which rebuilds self._queue
        # as a fresh list — a cached reference would go stale and spin on
        # already-fired entries.
        while self._queue:
            queue = self._queue
            head = queue[0]
            # The until-check must precede cancelled-head cleanup: events
            # beyond the stop time — cancelled or not — belong to a later
            # run() call and must not be popped by this one.
            if until is not None and head[0] > until:
                break
            if head[2].cancelled:
                heapq.heappop(queue)
                continue
            if executed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            self.step()
            executed += 1
        if until is not None and self._now < until:
            self._now = until
