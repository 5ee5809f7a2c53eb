"""Heartbeat emission and the unreliable failure detector.

Every node (each CE replica and the AD) emits a heartbeat each
``heartbeat_interval`` while it is up; heartbeats arrive after a fixed
``heartbeat_delay``.  The detector is the classic timeout family: a node
is *suspected* once no heartbeat has arrived for
``suspicion_threshold * detection_timeout`` time units, and *restored*
by the next arrival.  Nothing here draws randomness — heartbeat times
are a pure function of the crash schedule and the config — so the whole
membership view is computable up front and the simulation stays
record→replay bit-identical by construction.

The view is derived from the crash windows and the heartbeat grid
``k * heartbeat_interval`` alone: a node is up on runs of consecutive
grid points, one run per gap between windows, so suspicions,
detections and missed detections cost per window, not per heartbeat.
The heartbeat and arrival times themselves are produced only when
something iterates them — the ordered trace does, a counter only takes
their ``len()``.

The detector is deliberately *unreliable* in both directions, exactly as
the Chandra–Toueg framing requires:

* **false suspicions** when the suspicion window is shorter than the
  heartbeat interval (every inter-heartbeat gap looks like a silence);
* **missed detections** when a crash window is shorter than the
  suspicion window (the node is back before anyone got impatient).

Both show up in :class:`NodeView` and drive the detection-latency /
missed-alert trade-off the membership benchmark sweeps.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.membership.config import MembershipConfig
from repro.simulation.failures import CrashSchedule

__all__ = ["HeartbeatGrid", "NodeView", "covers", "node_view"]


def covers(intervals: tuple[tuple[float, float], ...], time: float) -> bool:
    """Is ``time`` inside one of the half-open ``[start, end)`` intervals?

    The intervals are sorted and disjoint, so only the last one starting
    at or before ``time`` can hold it.
    """
    index = bisect_right(intervals, (time, math.inf)) - 1
    return index >= 0 and time < intervals[index][1]


class HeartbeatGrid(Sequence):
    """The times ``k * interval + offset`` for every grid index ``k`` of
    the given ``(first, last)`` runs, in order, produced on demand.

    A node's heartbeat emissions (offset 0) or their arrivals (offset
    the heartbeat delay).  Compares equal to any sequence of the same
    floats.
    """

    __slots__ = ("runs", "interval", "offset", "_len")

    def __init__(
        self, runs: tuple[tuple[int, int], ...], interval: float, offset: float
    ) -> None:
        self.runs = runs
        self.interval = interval
        self.offset = offset
        self._len = sum(last - first + 1 for first, last in runs)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[float]:
        interval, offset = self.interval, self.offset
        for first, last in self.runs:
            for k in range(first, last + 1):
                yield k * interval + offset

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        if index < 0:
            index += self._len
        if 0 <= index:
            for first, last in self.runs:
                if index <= last - first:
                    return (first + index) * self.interval + self.offset
                index -= last - first + 1
        raise IndexError("grid index out of range")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class NodeView:
    """What the failure detector believes about one node over a run."""

    name: str
    #: Heartbeat emission times (k * interval while the node was up).
    heartbeats: Sequence[float]
    #: Heartbeat arrival times (emission + delay), the detector's input.
    arrivals: Sequence[float]
    #: Believed-down intervals ``[suspected, restored)`` — includes
    #: false suspicions when the detector is too impatient.
    suspects: tuple[tuple[float, float], ...]
    #: ``(crash_start, suspect_time)`` per *detected* real crash window.
    detections: tuple[tuple[float, float], ...]
    #: Real crash windows the detector never noticed (the node was back
    #: before the suspicion window elapsed).
    missed_detections: int

    def believed_down(self, time: float) -> bool:
        return covers(self.suspects, time)

    @property
    def detection_latencies(self) -> tuple[float, ...]:
        return tuple(st - s for s, st in self.detections)


def _first_index(x: float, interval: float, offset: float, strict: bool) -> int:
    """The least ``k >= 0`` with ``k * interval + offset >= x`` (``> x``
    when ``strict``), decided on the very floats the grid produces:
    division guesses, the comparisons settle."""
    k = math.ceil((x - offset) / interval)
    if k < 0:
        k = 0
    if strict:
        while k and (k - 1) * interval + offset > x:
            k -= 1
        while k * interval + offset <= x:
            k += 1
    else:
        while k and (k - 1) * interval + offset >= x:
            k -= 1
        while k * interval + offset < x:
            k += 1
    return k


def _up_runs(
    windows: tuple[tuple[float, float], ...], interval: float, horizon: float
) -> tuple[tuple[int, int], ...]:
    """``(first, last)`` runs of the grid indices ``k`` with ``k *
    interval <= horizon`` outside every closed crash window."""
    last = _first_index(horizon, interval, 0.0, strict=True) - 1
    runs: list[tuple[int, int]] = []
    k = 0
    for start, end in windows:
        if start > horizon:
            break
        inside = _first_index(start, interval, 0.0, strict=False)
        if inside > k:
            runs.append((k, inside - 1))
        k = max(k, _first_index(min(end, horizon), interval, 0.0, strict=True))
    if k <= last:
        runs.append((k, last))
    return tuple(runs)


def node_view(
    name: str,
    schedule: CrashSchedule,
    config: MembershipConfig,
    horizon: float,
) -> NodeView:
    """The detector's complete view of one node over ``[0, horizon]``."""
    interval = config.heartbeat_interval
    delay = config.heartbeat_delay
    window = config.suspicion_window
    runs = _up_runs(schedule.windows, interval, horizon)

    # Suspicions from the silences between consecutive arrivals.  The
    # node registers at time 0 (an implicit arrival), and the horizon
    # ends the observation, so a node silent near the end stays
    # suspected through it.  Inside a run consecutive arrivals are one
    # interval apart (to within rounding far below ``slack``): unless the
    # window is that short, only a run's first arrival can end a silence.
    slack = 1e-9 * (abs(horizon) + interval + delay)
    dense = window <= interval + slack
    suspects: list[tuple[float, float]] = []
    prev = 0.0
    for first, last in runs:
        for k in range(first, last + 1) if dense else (first,):
            arrival = k * interval + delay
            limit = arrival if arrival < horizon else horizon
            if limit - prev > window:
                suspects.append((prev + window, limit))
            if arrival > prev:
                prev = arrival
        arrival = last * interval + delay
        if arrival > prev:
            prev = arrival
    if horizon - prev > window:
        suspects.append((prev + window, horizon))

    # Per crash window: the last arrival the detector saw before the
    # crash could silence the stream (emissions at t < start arrive
    # before start + delay), and the first arrival at or after the
    # window's end, which restores the node.
    firsts = [first for first, _last in runs]
    lasts = [last for _first, last in runs]
    final = lasts[-1] * interval + delay if runs else -math.inf
    detections: list[tuple[float, float]] = []
    missed = 0
    for start, end in schedule.windows:
        if start > horizon:
            continue
        seen = _first_index(start + delay, interval, delay, strict=False) - 1
        run = bisect_right(firsts, seen) - 1
        suspect_time = (
            min(seen, lasts[run]) * interval + delay if run >= 0 else 0.0
        ) + window
        restored = horizon
        if end <= final:
            back = _first_index(end, interval, delay, strict=False)
            run = bisect_left(lasts, back)
            restored = max(back, firsts[run]) * interval + delay
        if suspect_time < restored:
            detections.append((start, suspect_time))
        else:
            missed += 1

    return NodeView(
        name=name,
        heartbeats=HeartbeatGrid(runs, interval, 0.0),
        arrivals=HeartbeatGrid(runs, interval, delay),
        suspects=tuple(suspects),
        detections=tuple(detections),
        missed_detections=missed,
    )
