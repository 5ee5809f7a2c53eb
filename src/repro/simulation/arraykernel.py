"""Array-native batched trial executor (struct-of-arrays fast path).

The object kernel (:mod:`repro.simulation.kernel` driven through
:class:`~repro.components.system.MonitoringSystem`) executes one trial as
a heap of per-event closures.  That is the right shape for observability
and for composing components, but it pays per event: a closure
allocation, a heap sift, and an attribute-dispatch chain through
DataMonitor → LossyFifoLink → CENode.

This module executes the *same* trial as flat passes over preallocated
lists — the struct-of-arrays layout:

* **Integer-coded events.**  The scheduler has no heap and no event
  objects.  The event graph of a monitoring run is feed-forward (readings
  → front deliveries → back deliveries; no stage feeds an earlier one),
  so the run decomposes into three phases executed as plain loops over
  sorted tuple arrays, with integer *rank* counters replicating the
  object kernel's ``(time, seq)`` tie-breaking exactly.
* **Batched RNG draws.**  Per-link draws come from the same named
  ``simulation/rng.py`` streams in the same order, but the draw sites are
  inlined (``lo + span * rng.random()`` instead of a DelayModel dispatch
  per message), so a whole trial's worth of draws for one link is
  materialized by tight repeated calls on one bound method.

What is *not* here is the CE step or the AD filter: every delivery that
reaches a live CE is handed to that CE's
:class:`~repro.core.evaluator.ConditionEvaluator`, the same object the
object kernel's ``CENode`` wraps, and every alert that reaches the AD is
offered to the :class:`~repro.displayers.base.ADAlgorithm` its ``ADNode``
wraps, so the two kernels cannot disagree on history windows, condition
evaluation, alert construction or filtering — only on scheduling, links,
faults and membership.

Differential oracle contract: for any ``(condition, workload, config,
seed)`` — including fault-injected and membership-on configs —
:func:`run_system_array` returns a
:class:`~repro.components.system.RunResult` equal to the object kernel's,
and an order-free tracer (see :mod:`repro.observability.tracer`) ends the
run holding the object kernel's counters, key for key.  The counters are
not a replay of the object kernel's schedule: they are folded from the
lengths and tallies the three phases already have, so their equality is
an independent derivation.  There is no ordered event stream here; a
tracer that needs one is run on the object kernel, which stays
authoritative — this module must follow it.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.components.system import (
    MonitoringSystem,
    RunResult,
    SystemConfig,
    Workload,
    planned_surface,
)
from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.evaluator import ConditionEvaluator
from repro.core.update import Update
from repro.displayers.base import ADAlgorithm
from repro.displayers.registry import make_ad
from repro.membership.registry import membership_horizon, plan_membership
from repro.simulation.kernel import SimulationError
from repro.simulation.network import FixedDelay, PerLinkSkewDelay, UniformDelay
from repro.simulation.rng import RandomStreams

__all__ = ["run_system_array"]


# ---------------------------------------------------------------------------
# Delay-model dispatch codes for the inlined sampling sites
# ---------------------------------------------------------------------------

_D_UNIFORM, _D_FIXED, _D_SKEW, _D_GENERIC = 0, 1, 2, 3


def _delay_parts(delay) -> tuple:
    """``(kind, p1, p2, p3, p4, skew bases)`` so hot loops can sample
    without method dispatch; parameters a kind does not use are 0.0."""
    kind = type(delay)
    if kind is UniformDelay:
        lo, hi = delay.min_delay, delay.max_delay
        return (_D_UNIFORM, lo, hi - lo, 0.0, 0.0, None)
    if kind is FixedDelay:
        return (_D_FIXED, delay.delay, 0.0, 0.0, 0.0, None)
    if kind is PerLinkSkewDelay:
        b0, b1 = delay.base_range
        j0, j1 = delay.jitter_range
        return (_D_SKEW, b0, b1 - b0, j0, j1 - j0, delay._bases)
    return (_D_GENERIC, 0.0, 0.0, 0.0, 0.0, None)


def _sample_delay(
    parts, rnd, rng, skew_bases, index, spikes, model, now: float
) -> float:
    """One link-delay draw (``Link._sample_delay``): model, then spike factor.

    ``skew_bases[index]`` is the link's lazily drawn per-link base.  The
    two hot loops inline the same cases; this serves the duplicate-copy
    and catch-up corners of both link directions.
    """
    kind = parts[0]
    if kind == _D_UNIFORM:
        delay = parts[1] + parts[2] * rnd()
    elif kind == _D_SKEW:
        base = skew_bases[index]
        if base is None:
            base = parts[1] + parts[2] * rnd()
            skew_bases[index] = base
            parts[5][id(rng)] = base
        delay = base + (parts[3] + parts[4] * rnd())
    elif kind == _D_FIXED:
        delay = parts[1]
    else:
        delay = model.sample(rng)
    if spikes is not None:
        delay *= spikes.factor_at(now)
    return delay


class _Reason:
    """Why the AD just rejected an alert, rendered only if the tracer
    reads it (``str``): most counters are not keyed by reason."""

    __slots__ = ("algorithm", "alert")

    def __init__(self, algorithm: ADAlgorithm, alert: Alert) -> None:
        self.algorithm = algorithm
        self.alert = alert

    def __str__(self) -> str:
        return self.algorithm.rejection_reason(self.alert)


class _Trial:
    """Shared setup for one trial: flattened link/CE/DM parameter arrays."""

    def __init__(
        self,
        condition: Condition,
        workload: Workload,
        config: SystemConfig,
        seed: int,
        algorithm: ADAlgorithm | None,
    ) -> None:
        missing = set(condition.variables) - set(workload)
        if missing:
            raise ValueError(
                f"workload lacks readings for condition variables: {sorted(missing)}"
            )
        self.condition = condition
        self.config = config
        self.seed = seed
        self.algorithm = algorithm if algorithm is not None else make_ad(
            config.ad_algorithm, condition
        )
        streams = RandomStreams(seed)
        replication = config.replication
        self.replication = replication

        # -- DMs, in sorted-variable order (MonitoringSystem build order) --
        self.variables = sorted(workload)
        self.readings: list[list[tuple[float, float]]] = []
        for var in self.variables:
            entries = workload[var]
            prev = float("-inf")
            for t, _ in entries:
                if t < prev:
                    raise ValueError(
                        "readings must be in non-decreasing time order"
                    )
                prev = t
            self.readings.append(entries)
        self.dm_crash = [
            config.dm_crash_schedules.get(var) for var in self.variables
        ]
        self.suppressed = [0] * len(self.variables)
        self.next_seqno = [1] * len(self.variables)
        self.sent: list[list[Update]] = [[] for _ in self.variables]
        self.sent_log: list[tuple[float, Update]] = []

        # -- front links, indexed dm_idx * replication + ce_idx --
        n_links = len(self.variables) * replication
        self.n_links = n_links
        self.fl_rng = [None] * n_links
        self.fl_rnd = [None] * n_links
        self.fl_loss = [0.0] * n_links
        self.fl_tag = [0] * n_links
        self.fl_last_tag = [-1] * n_links
        self.fl_skew_base: list[float | None] = [None] * n_links
        #: Per-link tallies of the rare send/receive decisions, by the
        #: ``reason`` the object kernel's ``link/drop`` event carries;
        #: ``_count_run`` folds them (and every other counter) after the run.
        self.fl_drops = {
            reason: [0] * n_links
            for reason in (
                "outage",
                "loss" if config.front_loss_model is None else "burst",
                "duplicate",
                "reorder",
            )
        }
        self.fl_copies = [0] * n_links
        for dm_idx, var in enumerate(self.variables):
            for ce_idx in range(replication):
                li = dm_idx * replication + ce_idx
                rng = streams.stream(f"front/{var}/CE{ce_idx + 1}")
                self.fl_rng[li] = rng
                self.fl_rnd[li] = rng.random
                self.fl_loss[li] = config.front_loss_per_ce.get(
                    ce_idx, config.front_loss
                )
        self.front_parts = _delay_parts(config.front_delay)
        if self.front_parts[0] == _D_SKEW:
            bases = self.front_parts[5]
            for li in range(n_links):
                self.fl_skew_base[li] = bases.get(id(self.fl_rng[li]))

        # -- CEs and back links --
        self.ce_crash = [config.crash_schedules.get(i) for i in range(replication)]
        self.front_outage = [config.front_outages.get(i) for i in range(replication)]
        self.back_outage = [config.back_outages.get(i) for i in range(replication)]
        self.missed = [0] * replication
        self.bl_rng = [streams.stream(f"back/CE{i + 1}") for i in range(replication)]
        self.bl_rnd = [rng.random for rng in self.bl_rng]
        self.bl_last = [0.0] * replication
        #: Back-link sends stalled by a link outage / by AD downtime.
        self.bl_outage_holds = [0] * replication
        self.bl_ad_holds = [0] * replication
        self.back_parts = _delay_parts(config.back_delay)
        self.bl_skew_base: list[float | None] = [None] * replication
        if self.back_parts[0] == _D_SKEW:
            bases = self.back_parts[5]
            for ce_idx in range(replication):
                self.bl_skew_base[ce_idx] = bases.get(id(self.bl_rng[ce_idx]))

        self.evaluators = [
            ConditionEvaluator(condition, source=f"CE{i + 1}")
            for i in range(replication)
        ]

        # -- dynamic membership (see repro.membership) --
        self.mem_on = config.membership is not None
        self.mem_plan = None
        if self.mem_on:
            self.mem_plan = plan_membership(
                config.crash_schedules,
                config.ad_crash_schedule,
                replication,
                config.membership,
                membership_horizon(workload),
            )
            self.rec_flag = [False] * replication
            self.mem_buf: list[list[Update]] = [[] for _ in range(replication)]
            self.hw: list[dict[str, int]] = [{} for _ in range(replication)]
            self.caught_up = [0] * replication
            #: Per-CE tallies: arrivals buffered while recovering, stale
            #: in-flight datagrams dropped, buffered arrivals replayed at
            #: catch-up, and buffered arrivals that died unevaluated.
            self.buffered = [0] * replication
            self.stale = [0] * replication
            self.replayed = [0] * replication
            self.flushed = [0] * replication
            # Membership events in the object kernel's *generation* order
            # (plan.recoveries order, rejoin then catch-up per event) —
            # exactly the schedule-seq order MonitoringSystem assigns, so
            # sorting by (time, generation-order) equals (time, seq) order.
            sched: list[tuple[float, int, int, int, object]] = []
            for event in self.mem_plan.recoveries:
                sched.append(
                    (event.rejoin_time, len(sched), 0, event.ce_index, event)
                )
                if event.complete_time is not None:
                    sched.append(
                        (event.complete_time, len(sched), 1,
                         event.ce_index, event)
                    )
            self.mem_events = sorted(sched, key=lambda e: (e[0], e[1]))

        # -- AD --
        self.ad_arrivals: list[Alert] = []
        self.ad_times: list[float] = []
        self.ad_avail = config.ad_crash_schedule

    # -- shared inner steps --------------------------------------------------

    def _deliver_back(self, ce_idx: int, now: float) -> float:
        """Back-link delivery-time computation (ReliableLink/StoreAndForward).

        Returns the delivery time; updates the per-link monotone clamp.
        """
        config = self.config
        raw = now + _sample_delay(
            self.back_parts, self.bl_rnd[ce_idx], self.bl_rng[ce_idx],
            self.bl_skew_base, ce_idx, config.back_delay_spikes,
            config.back_delay, now,
        )
        outage = self.back_outage[ce_idx]
        if outage is not None:
            up_at = outage.next_up_time(raw)
            if up_at > raw:
                self.bl_outage_holds[ce_idx] += 1
                raw = up_at
        delivery = raw if raw > self.bl_last[ce_idx] else self.bl_last[ce_idx]
        if self.ad_avail is not None:
            available_at = self.ad_avail.next_up_time(delivery)
            if available_at > delivery:
                self.bl_ad_holds[ce_idx] += 1
                delivery = available_at
        self.bl_last[ce_idx] = delivery
        if delivery < now:
            raise SimulationError(
                f"cannot schedule at {delivery} before current time {now}"
            )
        return delivery

    # -- membership lifecycle (mirrors CENode decision for decision) --------

    def _flush(self, ce_idx: int) -> None:
        """Buffered arrivals that die unevaluated count as missed."""
        buf = self.mem_buf[ce_idx]
        self.missed[ce_idx] += len(buf)
        self.flushed[ce_idx] += len(buf)
        buf.clear()

    def _mem_rejoin(self, ce_idx: int, event) -> None:
        """Rejoin: flush an aborted recovery's buffer, enter recovering."""
        self._flush(ce_idx)
        self.rec_flag[ce_idx] = event.source != "none"

    def _mem_catchup(self, ce_idx: int, event, now: float, on_alert) -> None:
        """Catch-up: snapshot the source's knowledge at fire time,
        clock-filter, replay through evaluation, then the live buffer.

        ``on_alert(ce_idx, alert, now)`` ships a raised alert over the
        back link.
        """
        self.rec_flag[ce_idx] = False
        if event.source == "log":
            # sent_log append order is already (time, varname)-sorted;
            # the time filter matters because phase 1 has logged the
            # whole run's sends before any delivery fires.
            # (A 1-tuple sorts before every same-time entry, and the
            # comparison never reaches the updates.)
            sent = self.sent_log[:bisect_left(self.sent_log, (now,))]
            knowledge = [update for _time, update in sent]
        else:
            peer = int(event.source.rsplit(":CE", 1)[1]) - 1
            knowledge = self.evaluators[peer].received
        hw = self.hw[ce_idx]
        for tally, updates in (
            (self.caught_up, knowledge), (self.replayed, self.mem_buf[ce_idx])
        ):
            for update in updates:
                if update.seqno <= hw.get(update.varname, 0):
                    continue
                hw[update.varname] = update.seqno
                tally[ce_idx] += 1
                alert = self.evaluators[ce_idx].ingest(update)
                if alert is not None:
                    on_alert(ce_idx, alert, now)
        self.mem_buf[ce_idx].clear()

    # -- result assembly -----------------------------------------------------

    def result(self) -> RunResult:
        if self.mem_on:
            # A node still recovering at end of run never evaluated its
            # buffered arrivals (CENode.flush_recovery_buffer).
            for ce_idx in range(self.replication):
                self._flush(ce_idx)
                self.rec_flag[ce_idx] = False
        return RunResult(
            condition=self.condition,
            config=self.config,
            seed=self.seed,
            sent={
                var: tuple(sent)
                for var, sent in zip(self.variables, self.sent)
            },
            # Appended in fire order: readings execute in
            # (time, schedule-seq) order, scheduling is DM-major over
            # sorted variables, so append order is already the object
            # kernel's sorted (time, varname) order.
            sent_log=tuple(self.sent_log),
            received=tuple(e.received for e in self.evaluators),
            ce_alerts=tuple(e.alerts for e in self.evaluators),
            ad_arrivals=tuple(self.ad_arrivals),
            ad_arrival_times=tuple(self.ad_times),
            displayed=self.algorithm.output,
            filtered=self.algorithm.discarded,
            missed_while_down=tuple(self.missed),
            dm_suppressed=tuple(self.suppressed),
            caught_up=tuple(self.caught_up) if self.mem_on else (),
            membership=self.mem_plan,
        )


# ---------------------------------------------------------------------------
# The scheduler: three flat phases, no heap, no event objects
# ---------------------------------------------------------------------------

def _run(trial: _Trial, count=None) -> RunResult:
    """Execute the trial; ``count`` is an order-free tracer's hook or None.

    The loops only tally their rare branches (drops, holds, buffering) in
    plain ints on the trial; :func:`_count_run` folds those and the
    lengths the phases produce into counters once the run is over.  The
    one thing counted as it happens is an AD rejection: its reason
    depends on the filter state at decision time.
    """
    config = trial.config
    replication = trial.replication
    _new = object.__new__
    _oset = object.__setattr__

    # Phase 1 — readings.  The object kernel schedules every reading before
    # any delivery (so reading seqs globally precede delivery seqs) and
    # per-DM reading times are non-decreasing, so its fire order is exactly
    # (time, dm_idx, reading_idx).  Readings mutate only DM/send-side state,
    # so they can all run before any delivery.
    merged: list[tuple[float, int, int, float]] = []
    for dm_idx, entries in enumerate(trial.readings):
        for ridx, (time, value) in enumerate(entries):
            if time < 0.0:
                raise SimulationError(
                    f"cannot schedule at {time} before current time 0.0"
                )
            merged.append((time, dm_idx, ridx, value))
    merged.sort()

    variables = trial.variables
    dm_crash = trial.dm_crash
    suppressed = trial.suppressed
    next_seqno = trial.next_seqno
    sent_append = [s.append for s in trial.sent]
    sent_log_append = trial.sent_log.append
    fl_rnd = trial.fl_rnd
    fl_rng = trial.fl_rng
    fl_loss = trial.fl_loss
    fl_tag = trial.fl_tag
    fl_skew_base = trial.fl_skew_base
    front_outage = trial.front_outage
    parts = trial.front_parts
    front_kind, fp1, fp2, fp3, fp4, _bases = parts
    front_spikes = config.front_delay_spikes
    loss_model = config.front_loss_model
    duplication = config.front_duplication
    ce_range = range(replication)
    outage_drops = trial.fl_drops["outage"]
    #: Keyed "loss" or "burst": a run draws from one loss process only.
    loss_drops = trial.fl_drops["loss" if loss_model is None else "burst"]

    #: (arrival_time, rank, tag, link_idx, update) — rank replicates the
    #: object kernel's schedule-seq *relative* order among front events.
    arrivals: list[tuple[float, int, int, int, Update]] = []
    arrivals_append = arrivals.append
    if loss_model is None and duplication is None:
        # Common path: per-link RNG streams are independent (Bernoulli
        # coin and delay draws both come from the link's own stream), so
        # after one merged pass materializes the surviving updates, each
        # link's whole trial of draws runs as one tight batch.  Ranks are
        # assigned ``reading_index * replication + ce_idx``: not dense,
        # but monotone in the object kernel's schedule order, which is
        # all the phase-2 sort needs.
        surviving: list[list[tuple[int, float, Update]]] = [
            [] for _ in variables
        ]
        r_index = 0
        for time, dm_idx, _ridx, value in merged:
            crash = dm_crash[dm_idx]
            if crash is not None and not crash.is_up(time):
                suppressed[dm_idx] += 1
                continue
            seqno = next_seqno[dm_idx]
            next_seqno[dm_idx] = seqno + 1
            # Fast frozen-dataclass construction: the inputs are valid by
            # construction (non-empty varname, seqno >= 1), so skip
            # __init__'s indirection and __post_init__ validation.
            update = _new(Update)
            _oset(update, "varname", variables[dm_idx])
            _oset(update, "seqno", seqno)
            _oset(update, "value", value)
            sent_append[dm_idx](update)
            sent_log_append((time, update))
            surviving[dm_idx].append((r_index, time, update))
            r_index += 1
        for dm_idx in range(len(variables)):
            batch = surviving[dm_idx]
            if not batch:
                continue
            base_li = dm_idx * replication
            for ce_idx in ce_range:
                li = base_li + ce_idx
                rnd = fl_rnd[li]
                loss = fl_loss[li]
                outage = front_outage[ce_idx]
                tag = fl_tag[li]
                skew_base = fl_skew_base[li]
                for r_index, time, update in batch:
                    mtag = tag
                    tag += 1
                    if outage is not None and not outage.is_up(time):
                        outage_drops[li] += 1
                        continue
                    if rnd() < loss:
                        loss_drops[li] += 1
                        continue
                    if front_kind == _D_UNIFORM:
                        delay = fp1 + fp2 * rnd()
                    elif front_kind == _D_SKEW:
                        if skew_base is None:
                            skew_base = fp1 + fp2 * rnd()
                            fl_skew_base[li] = skew_base
                            parts[5][id(fl_rng[li])] = skew_base
                        delay = skew_base + (fp3 + fp4 * rnd())
                    elif front_kind == _D_FIXED:
                        delay = fp1
                    else:
                        delay = config.front_delay.sample(fl_rng[li])
                    if front_spikes is not None:
                        delay *= front_spikes.factor_at(time)
                    if delay < 0:
                        raise SimulationError(
                            f"cannot schedule into the past (delay={delay})"
                        )
                    arrivals_append(
                        (time + delay,
                         r_index * replication + ce_idx, mtag, li, update)
                    )
                fl_tag[li] = tag
    else:
        # Adversarial path: a shared stateful loss model (Gilbert–Elliott
        # chain) or duplication draws consume randomness in global fire
        # order, so sends must interleave exactly as the object kernel's.
        rank = 0
        for time, dm_idx, _ridx, value in merged:
            crash = dm_crash[dm_idx]
            if crash is not None and not crash.is_up(time):
                suppressed[dm_idx] += 1
                continue
            seqno = next_seqno[dm_idx]
            next_seqno[dm_idx] = seqno + 1
            update = _new(Update)
            _oset(update, "varname", variables[dm_idx])
            _oset(update, "seqno", seqno)
            _oset(update, "value", value)
            sent_append[dm_idx](update)
            sent_log_append((time, update))
            base_li = dm_idx * replication
            for ce_idx in ce_range:
                li = base_li + ce_idx
                tag = fl_tag[li]
                fl_tag[li] = tag + 1
                outage = front_outage[ce_idx]
                if outage is not None and not outage.is_up(time):
                    outage_drops[li] += 1
                    continue
                rnd = fl_rnd[li]
                if loss_model is not None:
                    if loss_model.dropped(fl_rng[li]):
                        loss_drops[li] += 1
                        continue
                elif rnd() < fl_loss[li]:
                    loss_drops[li] += 1
                    continue
                if front_kind == _D_UNIFORM:
                    delay = fp1 + fp2 * rnd()
                elif front_kind == _D_SKEW:
                    base = fl_skew_base[li]
                    if base is None:
                        base = fp1 + fp2 * rnd()
                        fl_skew_base[li] = base
                        parts[5][id(fl_rng[li])] = base
                    delay = base + (fp3 + fp4 * rnd())
                elif front_kind == _D_FIXED:
                    delay = fp1
                else:
                    delay = config.front_delay.sample(fl_rng[li])
                if front_spikes is not None:
                    delay *= front_spikes.factor_at(time)
                if delay < 0:
                    raise SimulationError(
                        f"cannot schedule into the past (delay={delay})"
                    )
                arrivals_append((time + delay, rank, tag, li, update))
                rank += 1
                if duplication is not None:
                    for _ in range(duplication.draw_copies(fl_rng[li])):
                        trial.fl_copies[li] += 1
                        delay = _sample_delay(
                            parts, rnd, fl_rng[li], fl_skew_base, li,
                            front_spikes, config.front_delay, time,
                        )
                        if delay < 0:
                            raise SimulationError(
                                f"cannot schedule into the past (delay={delay})"
                            )
                        arrivals_append((time + delay, rank, tag, li, update))
                        rank += 1

    # Phase 2 — front deliveries in (time, rank) order.  Back-link sends
    # happen inline (their RNG draws occur in delivery-fire order, exactly
    # as in the object kernel); deliveries to the AD are deferred to phase 3
    # since they touch only AD state.
    arrivals.sort()
    fl_last_tag = trial.fl_last_tag
    fl_drops = trial.fl_drops
    ce_crash = trial.ce_crash
    missed = trial.missed
    back_events: list[tuple[float, int, Alert]] = []
    back_append = back_events.append
    brank = 0

    bparts = trial.back_parts
    back_kind, bp1, bp2, bp3, bp4, _bases = bparts
    back_spikes = config.back_delay_spikes
    bl_rnd = trial.bl_rnd
    bl_rng = trial.bl_rng
    bl_skew_base = trial.bl_skew_base
    bl_last = trial.bl_last
    back_outage = trial.back_outage
    ad_avail = trial.ad_avail

    # Membership events merge into the phase-2 stream by (time, seq): they
    # hold the globally lowest schedule seqs, so at equal time a rejoin or
    # catch-up fires before any delivery.  ``fire_mem`` drains all events
    # due at or before the limit; the guard below keeps the membership-off
    # hot path at a single dead comparison per delivery.
    mem_events = trial.mem_events if trial.mem_on else ()
    mn = len(mem_events)
    mi = 0

    def mem_alert(ce_idx: int, alert: Alert, mtime: float) -> None:
        nonlocal brank
        back_append((trial._deliver_back(ce_idx, mtime), brank, alert))
        brank += 1

    def fire_mem(limit: float) -> None:
        nonlocal mi
        while mi < mn and mem_events[mi][0] <= limit:
            mtime, _order, mkind, mce, mev = mem_events[mi]
            mi += 1
            if mkind == 0:
                trial._mem_rejoin(mce, mev)
            else:
                trial._mem_catchup(mce, mev, mtime, mem_alert)

    # Per-link lookup tables: one list index replaces a modulo (and an
    # attribute lookup on the evaluator) in the delivery loop.
    li_ce = [li % replication for li in range(trial.n_links)]
    li_ingest = [trial.evaluators[ce_idx].ingest for ce_idx in li_ce]
    mem_on = trial.mem_on
    for time, _rank, tag, li, update in arrivals:
        if mi < mn and mem_events[mi][0] <= time:
            fire_mem(time)
        if tag <= fl_last_tag[li]:
            # The receiver drops a copy (equal tag) or a late datagram.
            reason = "duplicate" if tag == fl_last_tag[li] else "reorder"
            fl_drops[reason][li] += 1
            continue
        fl_last_tag[li] = tag
        ce_idx = li_ce[li]
        crash = ce_crash[ce_idx]
        if crash is not None and not crash.is_up(time):
            missed[ce_idx] += 1
            continue
        if mem_on:
            if trial.rec_flag[ce_idx]:
                trial.mem_buf[ce_idx].append(update)
                trial.buffered[ce_idx] += 1
                continue
            if update.seqno <= trial.hw[ce_idx].get(update.varname, 0):
                trial.stale[ce_idx] += 1
                continue  # stale in-flight datagram: catch-up beat it
            trial.hw[ce_idx][update.varname] = update.seqno
        alert = li_ingest[li](update)
        if alert is None:
            continue
        # -- inline back-link send (ReliableLink/StoreAndForward) ----
        if back_kind == _D_UNIFORM:
            bdelay = bp1 + bp2 * bl_rnd[ce_idx]()
        elif back_kind == _D_SKEW:
            base = bl_skew_base[ce_idx]
            if base is None:
                base = bp1 + bp2 * bl_rnd[ce_idx]()
                bl_skew_base[ce_idx] = base
                bparts[5][id(bl_rng[ce_idx])] = base
            bdelay = base + (bp3 + bp4 * bl_rnd[ce_idx]())
        elif back_kind == _D_FIXED:
            bdelay = bp1
        else:
            bdelay = config.back_delay.sample(bl_rng[ce_idx])
        if back_spikes is not None:
            bdelay *= back_spikes.factor_at(time)
        raw = time + bdelay
        outage = back_outage[ce_idx]
        if outage is not None:
            up_at = outage.next_up_time(raw)
            if up_at > raw:
                trial.bl_outage_holds[ce_idx] += 1
                raw = up_at
        last = bl_last[ce_idx]
        delivery = raw if raw > last else last
        if ad_avail is not None:
            available_at = ad_avail.next_up_time(delivery)
            if available_at > delivery:
                trial.bl_ad_holds[ce_idx] += 1
                delivery = available_at
        bl_last[ce_idx] = delivery
        if delivery < time:
            raise SimulationError(
                f"cannot schedule at {delivery} before current time {time}"
            )
        back_append((delivery, brank, alert))
        brank += 1
    if mi < mn:
        fire_mem(float("inf"))

    # Phase 3 — AD deliveries in (time, brank) order, each offered to the
    # ADAlgorithm object, the same filter the object kernel's AD node runs.
    back_events.sort()
    ad_arrivals_append = trial.ad_arrivals.append
    ad_times_append = trial.ad_times.append
    algorithm = trial.algorithm
    offer = algorithm.offer
    shown = 0
    for time, _brank, alert in back_events:
        ad_arrivals_append(alert)
        ad_times_append(time)
        if offer(alert):
            shown += 1
        elif count is not None:
            count("ad", "filter", "AD", _Reason(algorithm, alert))
    if count is not None:
        count("ad", "display", "AD", n=shown)

    if count is not None:
        _count_run(
            trial, count, mn + len(merged) + len(arrivals) + len(back_events)
        )
    return trial.result()


def _count_run(trial: _Trial, count, events: int) -> None:
    """Fold a finished trial into the object kernel's ``stage/kind/node``
    counters (AD display/filter excepted: phase 3 counted those).

    Nothing here depends on event order: every number is a tally of a
    decision a phase made or the length of a list it built.  ``events``
    is everything the phases scheduled — membership events, readings,
    front arrivals, back deliveries — and all of it fired, because the
    run drains to quiescence; likewise whatever a link accepted and did
    not drop, it delivered.
    """
    count("kernel", "schedule", "", n=events)
    count("kernel", "fire", "", n=events)
    replication = trial.replication
    mem_on = trial.mem_on
    live = [0] * replication
    for dm_idx, var in enumerate(trial.variables):
        count("dm", "suppressed", f"DM-{var}", "crashed", trial.suppressed[dm_idx])
        sent = len(trial.sent[dm_idx])
        for ce_idx in range(replication):
            li = dm_idx * replication + ce_idx
            name = f"DM-{var}->CE{ce_idx + 1}"
            count("link", "send", name, n=sent)
            count("link", "duplicate", name, n=trial.fl_copies[li])
            arrived = sent + trial.fl_copies[li]
            for reason, drops in trial.fl_drops.items():
                count("link", "drop", name, reason, drops[li])
                arrived -= drops[li]
            count("link", "deliver", name, n=arrived)
            live[ce_idx] += arrived
    for ce_idx in range(replication):
        name = f"CE{ce_idx + 1}"
        crashed = trial.missed[ce_idx]
        if mem_on:
            crashed -= trial.flushed[ce_idx]
            live[ce_idx] -= trial.buffered[ce_idx] + trial.stale[ce_idx]
            count("membership", "buffered", name, "recovering",
                  trial.buffered[ce_idx])
            count("membership", "stale-drop", name, n=trial.stale[ce_idx])
            count("membership", "catchup-ingest", name, n=trial.caught_up[ce_idx])
            count("membership", "replay-buffered", name, n=trial.replayed[ce_idx])
        count("ce", "missed", name, "crashed", crashed)
        count("ce", "update-received", name, n=live[ce_idx] - crashed)
        raised = len(trial.evaluators[ce_idx].alerts)
        count("ce", "alert-raised", name, n=raised)
        # Back links lose nothing: every alert raised is sent and delivered.
        back = f"{name}->AD"
        count("link", "send", back, n=raised)
        count("link", "hold", back, "outage", trial.bl_outage_holds[ce_idx])
        count("link", "hold", back, n=trial.bl_ad_holds[ce_idx])
        count("link", "deliver", back, n=raised)
    if mem_on:
        for _time, _order, kind, ce_idx, _event in trial.mem_events:
            count("membership", "catchup-complete" if kind else "rejoin",
                  f"CE{ce_idx + 1}")
    count("ad", "arrive", "AD", n=len(trial.ad_arrivals))


def run_system_array(
    condition: Condition,
    workload: Workload,
    config: SystemConfig,
    seed: int = 0,
    algorithm: ADAlgorithm | None = None,
    tracer: object | None = None,
) -> RunResult:
    """Array-kernel equivalent of :func:`repro.components.system.run_system`.

    Same inputs, same RunResult — see the module docstring for the
    equivalence argument.  Dispatch to it via ``run_system(...,
    kernel="array")`` rather than calling it directly.

    The tracer picks the level of detail: ``None`` runs bare, an
    order-free tracer is handed the object kernel's counters, and any
    other tracer needs the ordered event stream, which only the object
    kernel emits — so the run executes there, with the identical result.
    """
    if tracer is not None and not getattr(tracer, "order_free", False):
        return MonitoringSystem(
            condition, workload, config, seed, algorithm, tracer=tracer
        ).run()
    trial = _Trial(condition, workload, config, seed, algorithm)
    if tracer is None:
        return _run(trial)
    count = tracer.count
    for stage, kind, node, items, _payload in planned_surface(
        config, trial.mem_plan
    ):
        count(stage, kind, node, n=len(items))
    return _run(trial, count)
