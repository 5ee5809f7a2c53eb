"""The membership registry: recovery planning and the run's plan.

:func:`plan_membership` turns (crash schedules, membership config) into
a frozen :class:`MembershipPlan`: per-node detector views, one
:class:`RecoveryEvent` per crash window (rejoin instant, chosen catch-up
source, completion instant or the reason there is none), and the
below-quorum intervals where fewer than ``⌊n/2⌋+1`` replicas hold a
complete history.  Everything is computed analytically before the run —
the lifecycle consumes no randomness — so the object and array kernels
execute the *same* plan and stay bit-identical.

Catch-up source selection honours the unreliable detector: a recovering
CE only tries peers it *believes* alive (skipping suspects for free),
and each believed-alive peer that turns out to be unusable — actually
down, or itself still state-incomplete — costs one ``retry_backoff``
before the next candidate.  The per-variable seqno high-water vector
each CE maintains at runtime (its vector clock over the DM streams) then
decides exactly which updates the transfer must replay; see
:class:`~repro.components.ce_node.CENode`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass

from repro.membership.config import MembershipConfig
from repro.membership.detector import NodeView, covers, node_view
from repro.simulation.failures import CrashSchedule

__all__ = [
    "HORIZON_SLACK",
    "REJOIN_EPSILON",
    "MembershipPlan",
    "RecoveryEvent",
    "membership_horizon",
    "membership_surface",
    "plan_membership",
]

#: Rejoin instant = window end + this, matching CrashSchedule.next_up_time.
REJOIN_EPSILON = 1e-6

#: Detector-observation slack past the last reading, numerically equal to
#: scenarios.FAULT_HORIZON_SLACK (kept local: workloads imports components
#: which imports this package, so importing scenarios here would cycle).
HORIZON_SLACK = 80.0


def membership_horizon(workload: Mapping) -> float:
    """The time span the detector observes: last reading + slack."""
    last = 0.0
    for entries in workload.values():
        for time, _value in entries:
            if time > last:
                last = time
    return last + HORIZON_SLACK


@dataclass(frozen=True)
class RecoveryEvent:
    """One crash window's planned rejoin + catch-up."""

    ce_index: int
    window_start: float
    window_end: float
    #: When the node is back up and starts recovering.
    rejoin_time: float
    #: "peer:CEk", "log", or "none" (restart without catch-up).
    source: str
    #: Believed-alive peers that failed before the chosen source.
    attempts: int
    #: When catch-up finishes and the node is state-complete again;
    #: ``None`` when there is no catch-up (source "none") or the node
    #: re-crashed mid-transfer (``aborted``).
    complete_time: float | None
    #: True when the next crash window started before catch-up finished.
    aborted: bool = False

    @property
    def successful(self) -> bool:
        return self.complete_time is not None


@dataclass(frozen=True)
class MembershipPlan:
    """The complete, pre-computed membership lifecycle of one run."""

    config: MembershipConfig
    horizon: float
    replication: int
    #: Minimum state-complete CEs for full-strength guarantees.
    quorum: int
    #: Detector views: CE1..CEn in index order, then the AD.
    views: tuple[NodeView, ...]
    #: Recovery events in global (rejoin_time, ce_index) order.
    recoveries: tuple[RecoveryEvent, ...]
    #: Intervals where fewer than ``quorum`` CEs were state-complete.
    degraded: tuple[tuple[float, float], ...]

    @property
    def detection_latencies(self) -> tuple[float, ...]:
        return tuple(
            latency for view in self.views for latency in view.detection_latencies
        )

    @property
    def missed_detections(self) -> int:
        return sum(view.missed_detections for view in self.views)

    @property
    def recovery_latencies(self) -> tuple[float, ...]:
        """Mean-time-to-recover samples: crash start → state-complete."""
        return tuple(
            e.complete_time - e.window_start
            for e in self.recoveries
            if e.complete_time is not None
        )

    @property
    def degraded_time(self) -> float:
        return sum(end - start for start, end in self.degraded)

    @property
    def degraded_fraction(self) -> float:
        return self.degraded_time / self.horizon if self.horizon > 0 else 0.0


def plan_membership(
    crash_schedules: Mapping[int, CrashSchedule],
    ad_crash_schedule: CrashSchedule | None,
    replication: int,
    config: MembershipConfig,
    horizon: float,
) -> MembershipPlan:
    """Plan the run's whole membership lifecycle up front.

    Events are planned in global rejoin order (ties broken by CE index)
    so that peer selection for a later recovery can consult the already
    planned state of earlier ones — the circular "can my peer serve me
    while it is itself recovering" question has a unique well-founded
    answer under that order.
    """
    schedules = [
        crash_schedules.get(i) or CrashSchedule.never()
        for i in range(replication)
    ]
    views = tuple(
        [
            node_view(f"CE{i + 1}", schedules[i], config, horizon)
            for i in range(replication)
        ]
        + [node_view("AD", ad_crash_schedule or CrashSchedule.never(), config, horizon)]
    )

    pending: list[tuple[float, int, float, float]] = []
    for i in range(replication):
        for start, end in schedules[i].windows:
            pending.append((end + REJOIN_EPSILON, i, start, end))
    pending.sort()

    planned: dict[tuple[int, float], RecoveryEvent] = {}

    def incomplete_at(j: int, time: float) -> bool:
        """CE j has an unhealed history gap at ``time`` (its crash either
        has no planned recovery yet, or one completing later)."""
        for start, _end in schedules[j].windows:
            if start > time:
                break
            event = planned.get((j, start))
            if (
                event is None
                or event.complete_time is None
                or event.complete_time > time
            ):
                return True
        return False

    events: list[RecoveryEvent] = []
    for rejoin, i, start, end in pending:
        attempts = 0
        chosen: int | None = None
        if config.catchup_source in ("peer", "peer-then-log"):
            for j in range(replication):
                if j == i:
                    continue
                if views[j].believed_down(rejoin):
                    continue  # detector says down: skipped for free
                if incomplete_at(j, rejoin):
                    attempts += 1  # believed alive, transfer times out
                    continue
                chosen = j
                break
        if chosen is not None:
            source = f"peer:CE{chosen + 1}"
        elif config.catchup_source in ("log", "peer-then-log"):
            source = "log"
        else:
            source = "none"

        if source == "none":
            event = RecoveryEvent(i, start, end, rejoin, source, attempts, None)
        else:
            complete = (
                rejoin + attempts * config.retry_backoff + config.catchup_latency
            )
            windows = schedules[i].windows
            following = bisect_right(windows, (end, math.inf))
            if following < len(windows) and windows[following][0] <= complete:
                event = RecoveryEvent(
                    i, start, end, rejoin, source, attempts, None, aborted=True
                )
            else:
                event = RecoveryEvent(
                    i, start, end, rejoin, source, attempts, complete
                )
        planned[(i, start)] = event
        events.append(event)

    quorum = replication // 2 + 1
    degraded = _degraded_intervals(schedules, planned, replication, quorum, horizon)
    return MembershipPlan(
        config=config,
        horizon=horizon,
        replication=replication,
        quorum=quorum,
        views=views,
        recoveries=tuple(events),
        degraded=degraded,
    )


def _degraded_intervals(
    schedules: list[CrashSchedule],
    planned: Mapping[tuple[int, float], RecoveryEvent],
    replication: int,
    quorum: int,
    horizon: float,
) -> tuple[tuple[float, float], ...]:
    """Below-quorum intervals over [0, horizon].

    A CE is state-incomplete from a crash's start until the first
    *successful* catch-up after it (catch-up replays everything missed,
    so one completion heals all earlier gaps too), or forever within the
    horizon if none succeeds.
    """
    incomplete: list[tuple[tuple[float, float], ...]] = []
    for i in range(replication):
        # Walked latest crash first, ``heal`` is the first successful
        # completion at or after the window in hand.
        spans: list[tuple[float, float]] = []
        heal = horizon
        for start, _end in reversed(schedules[i].windows):
            event = planned.get((i, start))
            if event is not None and event.complete_time is not None:
                heal = min(event.complete_time, horizon)
            if start < horizon:
                spans.append((start, heal))
        merged: list[tuple[float, float]] = []
        for start, end in reversed(spans):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        incomplete.append(tuple(merged))

    points = {0.0, horizon}
    for spans in incomplete:
        for start, end in spans:
            points.add(min(start, horizon))
            points.add(min(end, horizon))
    ordered = sorted(points)
    out: list[tuple[float, float]] = []
    for left, right in zip(ordered, ordered[1:]):
        if right <= left:
            continue
        mid = (left + right) / 2
        complete_count = sum(1 for spans in incomplete if not covers(spans, mid))
        if complete_count < quorum:
            if out and out[-1][1] == left:
                out[-1] = (out[-1][0], right)
            else:
                out.append((left, right))
    return tuple(out)


def _config_event(plan: MembershipPlan) -> dict:
    cfg = plan.config
    return dict(
        heartbeat_interval=cfg.heartbeat_interval,
        heartbeat_delay=cfg.heartbeat_delay,
        detection_timeout=cfg.detection_timeout,
        suspicion_threshold=cfg.suspicion_threshold,
        catchup_latency=cfg.catchup_latency,
        retry_backoff=cfg.retry_backoff,
        catchup_source=cfg.catchup_source,
        quorum=plan.quorum,
        horizon=plan.horizon,
    )


def _recovery_event(event: RecoveryEvent) -> dict:
    return dict(
        window_start=event.window_start,
        window_end=event.window_end,
        rejoin=event.rejoin_time,
        source=event.source,
        attempts=event.attempts,
        complete=event.complete_time,
        aborted=event.aborted,
    )


def membership_surface(plan: MembershipPlan):
    """The planned lifecycle as time-0 ``membership``-stage event groups.

    Yields ``(stage, kind, node, items, payload)``: one event per item,
    carrying ``payload(item)``.  The tail of
    :func:`repro.components.system.planned_surface`, which says how the
    two kernels read it; only the *runtime* rejoin/catch-up events
    exercise each kernel's own execution path.
    """
    yield "membership", "config", "", (plan,), _config_event
    for view in plan.views:
        yield ("membership", "heartbeat", view.name, view.heartbeats,
               lambda at: dict(at=at))
        yield ("membership", "suspect", view.name, view.suspects,
               lambda span: dict(at=span[0], restore=span[1]))
        yield ("membership", "detection", view.name, view.detections,
               lambda pair: dict(crashed=pair[0], detected=pair[1]))
    for event in plan.recoveries:
        yield ("membership", "recovery-plan", f"CE{event.ce_index + 1}",
               (event,), _recovery_event)
    yield ("membership", "below-quorum", "", plan.degraded,
           lambda span: dict(start=span[0], end=span[1]))
