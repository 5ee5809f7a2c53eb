"""Failure injection: crash windows for Condition Evaluators.

The paper motivates replication with CE downtime: "the CE can go down,
causing it to miss updates.  Consequently, the CE may not know when a
condition is satisfied."  A :class:`CrashSchedule` is a set of closed
intervals of simulated time during which a node is down; messages
delivered inside a window are lost to that node permanently (datagram
semantics — the DM does not retransmit).

Used by the availability benchmark (Figure-1 motivation) to quantify how
much replication reduces the probability of a missed alert.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from random import Random

__all__ = ["CrashSchedule", "random_crash_schedule", "window_ends"]


def window_ends(
    windows: Sequence[tuple[float, float]], kind: str
) -> tuple[float, ...]:
    """Validate a list of closed windows; return its end points.

    Non-finite endpoints, inverted windows, and unsorted/overlapping
    windows all raise (``kind`` names the windows in the message).  NaN
    has to be rejected by name: every comparison against it is False, so
    it passes the order checks and a schedule holding one silently
    reports the node as always up.  Zero-length windows (``start ==
    end``) and adjacent windows (one ends where the next begins) are
    legal.  The ends of a valid list are non-decreasing, which is what
    lets a schedule answer "which window could hold time t?" by
    bisecting them: the first window whose end is at or after ``t``.
    """
    previous_end = None
    for start, end in windows:
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(
                f"{kind} window endpoints must be finite, got ({start}, {end})"
            )
        if end < start:
            raise ValueError(f"{kind} window end {end} before start {start}")
        if previous_end is not None and start < previous_end:
            raise ValueError(
                f"{kind} windows must be sorted and disjoint: window "
                f"starting at {start} overlaps previous end {previous_end}"
            )
        previous_end = end
    return tuple(end for _start, end in windows)


@dataclass(frozen=True)
class CrashSchedule:
    """Closed intervals [start, end] during which the node is down.

    Construction validates the window list outright (see
    :func:`window_ends`) and indexes it once; every lookup is a bisect.
    ``next_up_time`` chains across adjacent windows.
    """

    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ends", window_ends(self.windows, "crash"))

    @classmethod
    def never(cls) -> "CrashSchedule":
        return cls(())

    def is_up(self, time: float) -> bool:
        """True iff the node is operational at simulated ``time``."""
        index = bisect_left(self._ends, time)
        return index == len(self._ends) or self.windows[index][0] > time

    @property
    def total_downtime(self) -> float:
        return sum(end - start for start, end in self.windows)

    def union(self, other: "CrashSchedule") -> "CrashSchedule":
        """The schedule that is down whenever either input is down.

        Overlapping and touching windows are coalesced, so the result
        satisfies the sorted-and-disjoint invariant — this is how
        composed fault plans merge their downtime contributions.
        """
        merged: list[tuple[float, float]] = []
        for start, end in sorted(self.windows + other.windows):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return CrashSchedule(tuple(merged))

    def next_up_time(self, time: float, epsilon: float = 1e-6) -> float:
        """Earliest instant at or after ``time`` when the node is up.

        Returns ``time`` itself if the node is already up.  Windows are
        closed, so recovery is modelled at ``end + epsilon``.  Chains
        across adjacent windows.
        """
        windows = self.windows
        index = bisect_left(self._ends, time)
        while index < len(windows) and windows[index][0] <= time:
            if time <= windows[index][1]:
                time = windows[index][1] + epsilon
            index += 1
        return time


def random_crash_schedule(
    rng: Random,
    horizon: float,
    crash_rate: float,
    mean_repair: float,
) -> CrashSchedule:
    """Alternating up/down renewal process over [0, horizon].

    Up periods are exponential with rate ``crash_rate`` (mean
    ``1/crash_rate``); down periods are exponential with mean
    ``mean_repair``.  ``crash_rate = 0`` yields an always-up schedule.
    """
    if crash_rate < 0 or mean_repair < 0:
        raise ValueError("crash_rate and mean_repair must be non-negative")
    if crash_rate == 0:
        return CrashSchedule.never()
    windows: list[tuple[float, float]] = []
    time = 0.0
    while time < horizon:
        time += rng.expovariate(crash_rate)
        if time >= horizon:
            break
        down_for = rng.expovariate(1.0 / mean_repair) if mean_repair > 0 else 0.0
        end = min(time + down_for, horizon)
        windows.append((time, end))
        time = end
    return CrashSchedule(tuple(windows))
