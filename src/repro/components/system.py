"""Monitoring system builder and runner (Figures 1–3).

:class:`MonitoringSystem` wires DMs, CEs and an AD together on a fresh
kernel according to a :class:`SystemConfig`, runs the workload to
completion, and returns a :class:`RunResult` carrying everything the
analysis needs: U (sent), U_i (received per CE), A_i (generated per CE),
the interleaved arrival stream at the AD, and the displayed A — the last
three as identity-key columns, with alert views built on demand.

``replication = 1`` with the ``"pass"`` algorithm is the corresponding
non-replicated system N; ``replication >= 2`` with any AD algorithm is a
replicated system R.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.components.ad_node import ADNode
from repro.components.ce_node import CENode
from repro.components.data_monitor import DataMonitor
from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.update import Update
from repro.displayers.base import ADAlgorithm
from repro.displayers.registry import make_ad
from repro.membership.config import MembershipConfig
from repro.membership.registry import (
    MembershipPlan,
    membership_horizon,
    membership_surface,
    plan_membership,
)
from repro.props.report import PropertyReport, evaluate_run
from repro.simulation.failures import CrashSchedule
from repro.simulation.kernel import Kernel
from repro.simulation.network import (
    DelayModel,
    LossyFifoLink,
    ReliableLink,
    StoreAndForwardLink,
    UniformDelay,
)
from repro.simulation.rng import RandomStreams

__all__ = [
    "SystemConfig",
    "RunResult",
    "MonitoringSystem",
    "planned_surface",
    "run_system",
]

#: A workload: per-variable (time, value) reading schedules.
Workload = Mapping[str, Sequence[tuple[float, float]]]


@dataclass(frozen=True)
class SystemConfig:
    """Topology and link parameters of one monitoring system."""

    #: Number of Condition Evaluators (1 = non-replicated).
    replication: int = 2
    #: AD algorithm name from the registry ("pass", "AD-1", ... "AD-6").
    ad_algorithm: str = "AD-1"
    #: Per-message loss probability on every front link.
    front_loss: float = 0.0
    #: Front-link propagation delay model.
    front_delay: DelayModel = field(default_factory=lambda: UniformDelay(0.05, 1.5))
    #: Back-link propagation delay model (randomises A1/A2 interleaving).
    #: The spread intentionally exceeds the default 10-unit reading interval
    #: so alerts from different CEs can overtake each other at the AD.
    back_delay: DelayModel = field(default_factory=lambda: UniformDelay(0.05, 30.0))
    #: Optional per-CE crash schedules, keyed by CE index (0-based).
    crash_schedules: Mapping[int, CrashSchedule] = field(default_factory=dict)
    #: Optional AD (PDA) downtime.  When set, back links store and forward:
    #: alerts arriving while the display device is off are held and
    #: delivered, still in order, at its next up-time — the paper's "the
    #: CE logs the alert, and sends it later" (§1).
    ad_crash_schedule: CrashSchedule | None = None
    #: Optional per-CE front-link loss override (CE index → probability),
    #: for heterogeneous networks; CEs absent from the map use front_loss.
    front_loss_per_ce: Mapping[int, float] = field(default_factory=dict)
    #: Optional per-CE front-link outage windows (§1: front links "can
    #: also be out of service") — datagrams sent while a CE's front links
    #: are down are lost.
    front_outages: Mapping[int, CrashSchedule] = field(default_factory=dict)
    #: Optional per-variable DM (sensor) downtime: readings scheduled
    #: while the sensor is down are never taken (see
    #: :class:`~repro.components.data_monitor.DataMonitor`).
    dm_crash_schedules: Mapping[str, CrashSchedule] = field(default_factory=dict)
    #: Optional per-CE back-link outage windows.  Back links are TCP-like,
    #: so an outage stalls alert delivery until the link recovers.
    back_outages: Mapping[int, CrashSchedule] = field(default_factory=dict)
    #: Optional correlated-loss model for front links (a stateful
    #: GilbertElliottLoss; see :mod:`repro.faults.model`).  When set it
    #: replaces the Bernoulli front_loss coin on every front link.
    front_loss_model: object | None = None
    #: Optional bounded duplication adversary on front links.
    front_duplication: object | None = None
    #: Optional congestion (delay-spike) schedules for front/back links.
    front_delay_spikes: object | None = None
    back_delay_spikes: object | None = None
    #: Optional dynamic-membership config (see :mod:`repro.membership`).
    #: When set, CE crashes stop being permanent silences: the run plans
    #: a detect → suspect → rejoin → catch-up lifecycle from the crash
    #: schedules and executes it deterministically on both kernels.
    membership: MembershipConfig | None = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if not 0.0 <= self.front_loss <= 1.0:
            raise ValueError(f"front_loss must be in [0,1], got {self.front_loss}")
        for index, loss in self.front_loss_per_ce.items():
            if not 0.0 <= loss <= 1.0:
                raise ValueError(
                    f"front_loss_per_ce[{index}] must be in [0,1], got {loss}"
                )


@dataclass(frozen=True)
class RunResult:
    """Everything observable about one completed run.

    The alert side is kept as identity-key columns — what every AD and
    property reads (§2: "others need only the update sequence numbers").
    ``ce_alerts``, ``ad_arrivals``, ``displayed`` and ``filtered`` are
    :class:`~repro.core.alert.Alert` views built from them on first read:
    each alert once, shared by every view it appears in, with the
    updates ``sent`` holds (a DM's seqnos are dense, so seqno *s* of *v*
    is ``sent[v][s - 1]``) and its CE's name as ``source``.
    """

    condition: Condition
    config: SystemConfig
    seed: int
    #: U per variable: the updates each DM broadcast.
    sent: dict[str, tuple[Update, ...]]
    #: All broadcasts merged in kernel order: (time, update) pairs.
    sent_log: tuple[tuple[float, Update], ...]
    #: U_i per CE: updates actually incorporated, in arrival order.
    received: tuple[tuple[Update, ...], ...]
    #: A_i per CE as identity keys, in the order the CE raised them.
    ce_keys: tuple[tuple[tuple, ...], ...]
    #: The CE index of each AD arrival, in arrival order (the input to
    #: M).  Back links are FIFO, so the k-th arrival from CE *i* is
    #: ``ce_keys[i][k]``.
    arrival_ces: tuple[int, ...]
    #: Simulated arrival time of each alert, aligned with ``arrival_ces``.
    ad_arrival_times: tuple[float, ...]
    #: The arrival index of each displayed alert, in display order: the
    #: displayed sequence A.
    displayed_arrivals: tuple[int, ...]
    #: Updates missed because a CE was crashed at delivery time.
    missed_while_down: tuple[int, ...]
    #: Readings never taken because the DM was down, per variable in
    #: sorted-variable order (empty when no DM crash schedules are set).
    dm_suppressed: tuple[int, ...] = ()
    #: Updates each CE re-acquired via membership catch-up, per CE
    #: (empty when membership is off).
    caught_up: tuple[int, ...] = ()
    #: The executed membership plan (None when membership is off).
    membership: MembershipPlan | None = None

    def evaluate_properties(self) -> PropertyReport:
        """Decide orderedness/completeness/consistency for this run."""
        return evaluate_run(self.condition, self.received, self.displayed_keys)

    @cached_property
    def displayed_keys(self) -> tuple[tuple, ...]:
        """The displayed sequence A as identity keys."""
        cursors = [iter(keys) for keys in self.ce_keys]
        arrivals = [next(cursors[ce]) for ce in self.arrival_ces]
        return tuple([arrivals[index] for index in self.displayed_arrivals])

    @cached_property
    def ce_alerts(self) -> tuple[tuple[Alert, ...], ...]:
        """A_i per CE: the alerts generated (a view of ``ce_keys``)."""
        # Looked up at call time, so a patch of the constructor binds.
        from repro.core.evaluator import alert_from_key

        sent = self.sent
        views = []
        for index, keys in enumerate(self.ce_keys):
            source = f"CE{index + 1}"
            alerts = []
            for key in keys:
                entries = {}
                for var, seqnos in key[1]:
                    updates = sent[var]
                    entries[var] = tuple([updates[s - 1] for s in seqnos])
                alerts.append(alert_from_key(key, entries, source))
            views.append(tuple(alerts))
        return tuple(views)

    @cached_property
    def ad_arrivals(self) -> tuple[Alert, ...]:
        """The interleaved arrival stream at the AD, as alerts."""
        cursors = [iter(alerts) for alerts in self.ce_alerts]
        return tuple([next(cursors[ce]) for ce in self.arrival_ces])

    @cached_property
    def displayed(self) -> tuple[Alert, ...]:
        """The displayed sequence A, as alerts."""
        arrivals = self.ad_arrivals
        return tuple([arrivals[index] for index in self.displayed_arrivals])

    @cached_property
    def filtered(self) -> tuple[Alert, ...]:
        """The alerts the AD filtered out, in arrival order."""
        shown = set(self.displayed_arrivals)
        return tuple(
            [a for index, a in enumerate(self.ad_arrivals) if index not in shown]
        )

    @property
    def all_generated(self) -> tuple[Alert, ...]:
        """Union of the CEs' alert streams (unordered concatenation)."""
        return tuple(a for stream in self.ce_alerts for a in stream)

    def arrival_stamps(self) -> tuple[tuple[tuple[float, int], ...], ...]:
        """Per-CE ``(arrival_time, global_index)`` stamps of the AD stream.

        Back links are FIFO, so the k-th stamp of CE *i* belongs to the
        k-th alert that CE sent; the global index makes ``(time, index)``
        a total order that reproduces the kernel's AD arrival
        interleaving exactly.  This is the scheduler-owned half of a
        run's semantics — the service runtime (:mod:`repro.service`)
        replays it without a scheduler by merging stamped alert streams.
        """
        stamps: list[list[tuple[float, int]]] = [
            [] for _ in range(self.config.replication)
        ]
        for index, (ce, time) in enumerate(
            zip(self.arrival_ces, self.ad_arrival_times)
        ):
            stamps[ce].append((time, index))
        return tuple(tuple(per_ce) for per_ce in stamps)


def _window(window: tuple[float, float]) -> dict:
    return dict(start=window[0], end=window[1])


def _burst_loss(params) -> dict:
    return dict(
        good_to_bad=params.good_to_bad, bad_to_good=params.bad_to_good,
        loss_good=params.loss_good, loss_bad=params.loss_bad,
    )


def _duplication(adversary) -> dict:
    return dict(prob=adversary.duplicate_prob, max_copies=adversary.max_copies)


def planned_surface(config: SystemConfig, plan: MembershipPlan | None):
    """The run's planned fault and membership surface as event groups.

    Yields ``(stage, kind, node, items, payload)`` in a deterministic
    order: one time-0 event per item, carrying ``payload(item)``.  The
    object kernel emits them all before any simulated event — so a trace
    of a fault-injected run carries the complete fault model (every
    window and adversary parameter), not just the runtime consequences,
    and replays bit-identically; the array kernel hands an order-free
    tracer ``len(items)`` per group.  One description, so what is
    counted cannot drift from what is emitted.
    """
    for index in sorted(config.crash_schedules):
        yield ("fault", "ce-crash-window", f"CE{index + 1}",
               config.crash_schedules[index].windows, _window)
    for varname in sorted(config.dm_crash_schedules):
        yield ("fault", "dm-crash-window", f"DM-{varname}",
               config.dm_crash_schedules[varname].windows, _window)
    if config.ad_crash_schedule is not None:
        yield ("fault", "ad-crash-window", "AD",
               config.ad_crash_schedule.windows, _window)
    for index in sorted(config.front_outages):
        yield ("fault", "front-outage-window", f"CE{index + 1}",
               config.front_outages[index].windows, _window)
    for index in sorted(config.back_outages):
        yield ("fault", "back-outage-window", f"CE{index + 1}->AD",
               config.back_outages[index].windows, _window)
    if config.front_loss_model is not None:
        yield ("fault", "burst-loss", "front",
               (config.front_loss_model.params,), _burst_loss)
    if config.front_duplication is not None:
        yield ("fault", "duplication", "front",
               (config.front_duplication,), _duplication)
    for side, spikes in (
        ("front", config.front_delay_spikes),
        ("back", config.back_delay_spikes),
    ):
        if spikes is not None:
            yield ("fault", "delay-spike-window", side, spikes.windows,
                   lambda window, factor=spikes.factor: dict(
                       start=window[0], end=window[1], factor=factor))
    if plan is not None:
        yield from membership_surface(plan)


class MonitoringSystem:
    """Builds and runs one monitoring system instance."""

    def __init__(
        self,
        condition: Condition,
        workload: Workload,
        config: SystemConfig,
        seed: int = 0,
        algorithm: ADAlgorithm | None = None,
        tracer: object | None = None,
    ) -> None:
        missing = set(condition.variables) - set(workload)
        if missing:
            raise ValueError(
                f"workload lacks readings for condition variables: {sorted(missing)}"
            )
        self.condition = condition
        self.config = config
        self.seed = seed
        # The tracer rides on the kernel so every component (links, CEs,
        # the AD) reaches it through its existing kernel reference.
        self.kernel = Kernel(tracer=tracer)
        streams = RandomStreams(seed)

        ad_algorithm = algorithm if algorithm is not None else make_ad(
            config.ad_algorithm, condition
        )
        self.ad = ADNode(self.kernel, "AD", ad_algorithm)

        self.ces: list[CENode] = []
        for index in range(config.replication):
            ce = CENode(
                self.kernel,
                f"CE{index + 1}",
                condition,
                config.crash_schedules.get(index),
            )
            if config.ad_crash_schedule is not None:
                back: ReliableLink | StoreAndForwardLink = StoreAndForwardLink(
                    self.kernel,
                    self.ad.receive,
                    config.back_delay,
                    streams.stream(f"back/{ce.name}"),
                    availability=config.ad_crash_schedule,
                    name=f"{ce.name}->AD",
                    outage_schedule=config.back_outages.get(index),
                    spikes=config.back_delay_spikes,
                )
            else:
                back = ReliableLink(
                    self.kernel,
                    self.ad.receive,
                    config.back_delay,
                    streams.stream(f"back/{ce.name}"),
                    name=f"{ce.name}->AD",
                    outage_schedule=config.back_outages.get(index),
                    spikes=config.back_delay_spikes,
                )
            ce.connect_ad(back)
            self.ces.append(ce)

        self.dms: list[DataMonitor] = []
        for varname in sorted(workload):
            dm = DataMonitor(
                self.kernel,
                varname,
                list(workload[varname]),
                crash_schedule=config.dm_crash_schedules.get(varname),
            )
            for index, ce in enumerate(self.ces):
                front = LossyFifoLink(
                    self.kernel,
                    ce.receive,
                    config.front_delay,
                    streams.stream(f"front/{varname}/{ce.name}"),
                    loss_prob=config.front_loss_per_ce.get(
                        index, config.front_loss
                    ),
                    outage_schedule=config.front_outages.get(index),
                    name=f"DM-{varname}->{ce.name}",
                    loss_model=config.front_loss_model,
                    duplication=config.front_duplication,
                    spikes=config.front_delay_spikes,
                )
                dm.attach(front)
            self.dms.append(dm)

        self.membership_plan: MembershipPlan | None = None
        if config.membership is not None:
            self.membership_plan = plan_membership(
                config.crash_schedules,
                config.ad_crash_schedule,
                config.replication,
                config.membership,
                membership_horizon(workload),
            )
            for ce in self.ces:
                ce.enable_membership()

        if tracer is not None:
            for stage, kind, node, items, payload in planned_surface(
                config, self.membership_plan
            ):
                for item in items:
                    tracer.emit(0.0, stage, kind, node, **payload(item))

    def _schedule_membership_events(self) -> None:
        """Schedule every planned rejoin/catch-up *before* any reading.

        Membership events therefore take the globally lowest schedule
        seqs, so at equal simulated time a rejoin or catch-up fires
        before any reading or delivery — the invariant the catch-up
        knowledge snapshot relies on, and the tie-break the array kernel
        reproduces.  With membership off nothing is scheduled and every
        existing trace stays bit-identical.
        """
        for event in self.membership_plan.recoveries:
            ce = self.ces[event.ce_index]
            self.kernel.schedule_at(
                event.rejoin_time,
                lambda ce=ce, event=event: ce.rejoin(event),
                note=f"{ce.name} rejoin",
            )
            if event.complete_time is not None:
                self.kernel.schedule_at(
                    event.complete_time,
                    lambda ce=ce, event=event: self._complete_recovery(ce, event),
                    note=f"{ce.name} catch-up",
                )

    def _complete_recovery(self, ce: CENode, event) -> None:
        """Snapshot the catch-up source's knowledge at fire time and
        replay it into the recovering CE."""
        now = self.kernel.now
        if event.source == "log":
            entries = sorted(
                (
                    entry
                    for dm in self.dms
                    for entry in dm.sent_log
                    if entry[0] < now
                ),
                key=lambda pair: (pair[0], pair[1].varname),
            )
            knowledge = [update for _time, update in entries]
        else:
            peer_index = int(event.source.rsplit(":CE", 1)[1]) - 1
            knowledge = list(self.ces[peer_index].received)
        ce.complete_recovery(event, knowledge)

    def run(self) -> RunResult:
        """Execute the workload to quiescence and collect the results."""
        if self.membership_plan is not None:
            self._schedule_membership_events()
        for dm in self.dms:
            dm.start()
        self.kernel.run()
        if self.membership_plan is not None:
            for ce in self.ces:
                ce.flush_recovery_buffer()
        return RunResult(
            condition=self.condition,
            config=self.config,
            seed=self.seed,
            sent={dm.varname: dm.sent for dm in self.dms},
            sent_log=tuple(
                sorted(
                    (entry for dm in self.dms for entry in dm.sent_log),
                    key=lambda pair: (pair[0], pair[1].varname),
                )
            ),
            received=tuple(ce.received for ce in self.ces),
            ce_keys=tuple(
                tuple([alert.identity() for alert in ce.alerts])
                for ce in self.ces
            ),
            # Each CE node stamps its alerts "CE<n>".
            arrival_ces=tuple(
                [int(alert.source[2:]) - 1 for alert in self.ad.arrivals]
            ),
            ad_arrival_times=self.ad.arrival_times,
            displayed_arrivals=self.ad.shown,
            missed_while_down=tuple(ce.missed_while_down for ce in self.ces),
            dm_suppressed=tuple(dm.suppressed for dm in self.dms),
            caught_up=(
                tuple(ce.caught_up for ce in self.ces)
                if self.membership_plan is not None
                else ()
            ),
            membership=self.membership_plan,
        )


def run_system(
    condition: Condition,
    workload: Workload,
    config: SystemConfig,
    seed: int = 0,
    algorithm: ADAlgorithm | None = None,
    tracer: object | None = None,
    kernel: str = "array",
) -> RunResult:
    """Build and run a system in one call.

    ``tracer`` (see :mod:`repro.observability`) observes the run's kernel,
    link, CE and AD events; ``None`` — the default — disables tracing.

    ``kernel`` selects the trial executor: ``"array"`` — the default —
    (:mod:`repro.simulation.arraykernel`, the struct-of-arrays fast path
    that must produce identical results and, for order-free tracers,
    identical counters; a tracer that needs the ordered stream is run
    on the object kernel whichever kernel was asked for) or
    ``"object"`` (this module's event-object simulator, the
    authoritative semantics the differential tests hold the array
    kernel to).
    """
    if kernel == "array":
        from repro.simulation.arraykernel import run_system_array

        return run_system_array(
            condition, workload, config, seed=seed,
            algorithm=algorithm, tracer=tracer,
        )
    if kernel != "object":
        raise ValueError(f"unknown kernel {kernel!r}; expected 'object' or 'array'")
    return MonitoringSystem(
        condition, workload, config, seed, algorithm, tracer=tracer
    ).run()
