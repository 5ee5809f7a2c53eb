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
from dataclasses import dataclass

from repro.membership.config import MembershipConfig
from repro.simulation.failures import CrashSchedule

__all__ = ["NodeView", "covers", "node_view"]


def covers(intervals: tuple[tuple[float, float], ...], time: float) -> bool:
    """Is ``time`` inside one of the half-open ``[start, end)`` intervals?

    The intervals are sorted and disjoint, so only the last one starting
    at or before ``time`` can hold it.
    """
    index = bisect_right(intervals, (time, math.inf)) - 1
    return index >= 0 and time < intervals[index][1]


@dataclass(frozen=True)
class NodeView:
    """What the failure detector believes about one node over a run."""

    name: str
    #: Heartbeat emission times (k * interval while the node was up).
    heartbeats: tuple[float, ...]
    #: Heartbeat arrival times (emission + delay), the detector's input.
    arrivals: tuple[float, ...]
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


def _gap_suspects(
    arrivals: list[float], window: float, horizon: float
) -> tuple[tuple[float, float], ...]:
    """Believed-down intervals from inter-arrival gaps.

    The node registers at time 0 (an implicit arrival); the horizon acts
    as the end-of-observation sentinel, so a node that falls silent near
    the end stays suspected through the horizon.
    """
    out: list[tuple[float, float]] = []
    prev = 0.0
    for arrival in [*arrivals, horizon]:
        limit = arrival if arrival < horizon else horizon
        if limit - prev > window:
            out.append((prev + window, limit))
        if arrival > prev:
            prev = arrival
    return tuple(out)


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

    # One sweep of the heartbeat grid k * interval against the sorted
    # windows: emit while the grid point is before the next window, skip
    # while it is inside it.
    heartbeats: list[float] = []
    k = 0
    t = 0.0
    for start, end in (*schedule.windows, (math.inf, math.inf)):
        while t < start and t <= horizon:
            heartbeats.append(t)
            k += 1
            t = k * interval
        while t <= end and t <= horizon:
            k += 1
            t = k * interval
    arrivals = [t + delay for t in heartbeats]

    detections: list[tuple[float, float]] = []
    missed = 0
    for start, end in schedule.windows:
        if start > horizon:
            continue
        # Last arrival the detector saw before the crash could possibly
        # silence the stream (emissions at t < start arrive < start+delay).
        seen = bisect_left(arrivals, start + delay)
        suspect_time = (arrivals[seen - 1] if seen else 0.0) + window
        back = bisect_left(arrivals, end)
        restored = arrivals[back] if back < len(arrivals) else horizon
        if suspect_time < restored:
            detections.append((start, suspect_time))
        else:
            missed += 1

    return NodeView(
        name=name,
        heartbeats=tuple(heartbeats),
        arrivals=tuple(arrivals),
        suspects=_gap_suspects(arrivals, window, horizon),
        detections=tuple(detections),
        missed_detections=missed,
    )
