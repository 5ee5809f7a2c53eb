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
* **Per-link send loops.**  Every draw a front-link send makes — loss
  coin or burst-loss chain, delay, duplication — comes from that link's
  own named ``simulation/rng.py`` stream, in the order the object
  kernel's link draws it, with the delay models' arithmetic unrolled
  (``lo + span * rng.random()`` instead of a DelayModel dispatch per
  message).  No draw is shared between links, so a link's whole trial
  of sends runs as one tight loop, whatever faults are on.

What is *not* here is the CE step or the AD filter: every delivery that
reaches a live CE is stepped through that CE's
:class:`~repro.core.evaluator.ConditionEvaluator` — the class the object
kernel's ``CENode`` wraps — and every alert that reaches the AD is
decided by the :class:`~repro.displayers.base.ADAlgorithm` its
``ADNode`` runs, so the two kernels cannot disagree on history windows,
condition evaluation or filtering — only on scheduling, links, faults
and membership.  Both run on identity keys: a step returns the raised
alert's key, a back-link delivery carries ``(ce index, key)`` and the AD
decides on the key, so a trial builds no
:class:`~repro.core.alert.Alert`.  The
:class:`~repro.components.system.RunResult` keeps the key columns and
builds alerts only for a caller that reads its object views.

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


def _link_draw(model, rng):
    """One link's delay draws for the hot loops.

    ``random.Random.uniform``'s arithmetic is unrolled for the uniform
    model — same floats, no method dispatch per message — and any other
    model draws through its own ``for_link``.  The object kernel's links
    call the models themselves, so the differential checks the
    unrolling.
    """
    kind = type(model)
    if kind is UniformDelay:
        low, span, rnd = model.min_delay, model.max_delay - model.min_delay, rng.random
        return lambda: low + span * rnd()
    if kind is FixedDelay:
        delay = model.delay
        return lambda: delay
    return model.for_link(rng)


def _into_the_past(delay: float) -> SimulationError:
    return SimulationError(f"cannot schedule into the past (delay={delay})")


class _Reason:
    """Why the AD just rejected an alert, rendered only if the tracer
    reads it (``str``): most counters are not keyed by reason."""

    __slots__ = ("algorithm", "key")

    def __init__(self, algorithm: ADAlgorithm, key: tuple) -> None:
        self.algorithm = algorithm
        self.key = key

    def __str__(self) -> str:
        return self.algorithm.rejection_reason(self.key)


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
        #: The merged broadcast log in fire order; its updates alone are
        #: listed once, by the first catch-up that scans the log.
        self.sent_log: list[tuple[float, Update]] = []
        self.sent_updates: list[Update] | None = None

        # -- front links, indexed dm_idx * replication + ce_idx --
        n_links = len(self.variables) * replication
        self.n_links = n_links
        self.fl_rng = [
            streams.stream(f"front/{var}/CE{ce_idx + 1}")
            for var in self.variables
            for ce_idx in range(replication)
        ]
        self.fl_loss = [
            config.front_loss_per_ce.get(ce_idx, config.front_loss)
            for _var in self.variables
            for ce_idx in range(replication)
        ]
        self.fl_last_tag = [-1] * n_links
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

        # -- CEs and back links --
        self.ce_crash = [config.crash_schedules.get(i) for i in range(replication)]
        self.front_outage = [config.front_outages.get(i) for i in range(replication)]
        self.back_outage = [config.back_outages.get(i) for i in range(replication)]
        self.missed = [0] * replication
        self.bl_draw = [
            _link_draw(config.back_delay, streams.stream(f"back/CE{i + 1}"))
            for i in range(replication)
        ]
        self.bl_last = [0.0] * replication
        #: Back-link sends stalled by a link outage / by AD downtime.
        self.bl_outage_holds = [0] * replication
        self.bl_ad_holds = [0] * replication

        self.evaluators = [
            ConditionEvaluator(condition, source=f"CE{i + 1}")
            for i in range(replication)
        ]
        #: A_i per CE: the identity keys each CE step raised.
        self.ce_keys: list[list[tuple]] = [[] for _ in range(replication)]

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
        #: (delivery_time, send order, ce index, key) per back-link send.
        self.back_events: list[tuple[float, int, int, tuple]] = []
        self.arrival_ces: list[int] = []
        self.ad_times: list[float] = []
        self.shown: list[int] = []
        self.ad_avail = config.ad_crash_schedule

    # -- shared inner steps --------------------------------------------------

    def _send_back(self, ce_idx: int, key: tuple, now: float) -> None:
        """Send the alert ``key`` raised at ``now`` over CE ``ce_idx``'s
        back link (ReliableLink/StoreAndForward): draw its delivery time,
        hold it through link outages and AD downtime, clamp it monotone
        per link, and queue the delivery for phase 3."""
        delay = self.bl_draw[ce_idx]()
        spikes = self.config.back_delay_spikes
        if spikes is not None:
            delay *= spikes.factor_at(now)
        raw = now + delay
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
        self.ce_keys[ce_idx].append(key)
        self.back_events.append((delivery, len(self.back_events), ce_idx, key))

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

    def _mem_catchup(self, ce_idx: int, event, now: float) -> None:
        """Catch-up: replay the source's knowledge at fire time past the
        high-water vector, then the live buffer; ship what they raise."""
        self.rec_flag[ce_idx] = False
        if event.source == "log":
            # The merged DM log up to now (phase 1 has logged the whole
            # run's sends before any delivery fires).
            # (A 1-tuple sorts before every same-time entry, and the
            # comparison never reaches the updates.)
            if self.sent_updates is None:
                self.sent_updates = [update for _time, update in self.sent_log]
            knowledge = self.sent_updates
            end = bisect_left(self.sent_log, (now,))
            variables = self.variables
        else:
            peer = int(event.source.rsplit(":CE", 1)[1]) - 1
            knowledge = self.evaluators[peer]._received
            end = len(knowledge)
            variables = self.condition.variables
        hw = self.hw[ce_idx]
        # Each variable's seqnos increase along either source, so what the
        # high-water filter skips is a prefix of every variable's stream:
        # scanning back until each variable has shown a seqno at or below
        # its mark finds where the replay starts, and nothing earlier
        # would pass the filter.
        start = end
        pending = set(variables)
        while pending and start:
            start -= 1
            update = knowledge[start]
            if update.seqno <= hw.get(update.varname, 0):
                pending.discard(update.varname)
        step = self.evaluators[ce_idx].step
        for tally, updates in (
            (self.caught_up, knowledge[start:end]),
            (self.replayed, self.mem_buf[ce_idx]),
        ):
            for update in updates:
                if update.seqno <= hw.get(update.varname, 0):
                    continue
                hw[update.varname] = update.seqno
                tally[ce_idx] += 1
                key = step(update)
                if key is not None:
                    self._send_back(ce_idx, key, now)
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
            ce_keys=tuple(tuple(keys) for keys in self.ce_keys),
            arrival_ces=tuple(self.arrival_ces),
            ad_arrival_times=tuple(self.ad_times),
            displayed_arrivals=tuple(self.shown),
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

    # Phase 1 — readings, then sends.  The object kernel schedules every
    # reading before any delivery (so reading seqs globally precede
    # delivery seqs) and per-DM reading times are non-decreasing, so its
    # fire order is exactly (time, dm_idx, reading_idx).  Readings mutate
    # only DM/send-side state, so they can all run before any delivery.
    # A crashed DM suppresses a reading without drawing a seqno, so the
    # readings it suppresses can be dropped before the merge: per DM the
    # times only grow, and CrashSchedule.is_up is a cursor over the
    # windows.
    suppressed = trial.suppressed
    merged: list[tuple[float, int, int, float]] = []
    for dm_idx, entries in enumerate(trial.readings):
        crash = trial.dm_crash[dm_idx]
        down = () if crash is None else crash.windows
        wi = 0
        n_down = len(down)
        for ridx, (time, value) in enumerate(entries):
            if time < 0.0:
                raise SimulationError(
                    f"cannot schedule at {time} before current time 0.0"
                )
            if wi < n_down:
                while wi < n_down and down[wi][1] < time:
                    wi += 1
                if wi < n_down and down[wi][0] <= time:
                    suppressed[dm_idx] += 1
                    continue
            merged.append((time, dm_idx, ridx, value))
    merged.sort()

    variables = trial.variables
    next_seqno = trial.next_seqno
    sent_append = [s.append for s in trial.sent]
    sent_log_append = trial.sent_log.append
    spikes = config.front_delay_spikes
    spike_windows = () if spikes is None else spikes.windows
    si = 0
    n_spikes = len(spike_windows)
    duplication = config.front_duplication
    # Ranks replicate the object kernel's schedule-seq *relative* order
    # among front arrivals: (reading, CE, copy), as
    # ``(reading_index * replication + ce_idx) * slot + copy`` — not dense,
    # but monotone in that order, which is all the phase-2 sort needs.
    slot = 1 if duplication is None else duplication.max_copies + 1
    reading_ranks = replication * slot
    #: Per DM: (rank base, send time, spike factor, update) per send.
    batches: list[list[tuple[int, float, float, Update]]] = [
        [] for _ in variables
    ]
    rank_base = 0
    for time, dm_idx, _ridx, value in merged:
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
        # A delay spike depends on the send time alone: one lookup per
        # reading, shared by its sends on every link, and
        # DelaySpikeSchedule.factor_at is a cursor over the windows.
        factor = 1.0
        if si < n_spikes:
            while si < n_spikes and spike_windows[si][1] < time:
                si += 1
            if si < n_spikes and spike_windows[si][0] <= time:
                factor = spikes.factor
        batches[dm_idx].append((rank_base, time, factor, update))
        rank_base += reading_ranks

    # One send loop per front link, clean and adversarial alike: every
    # draw comes from the link's own stream, in its send order.  A send
    # multiplies its delay by the spike factor even when it is 1.0, which
    # leaves the delay bit for bit as it was.
    front_delay = config.front_delay
    # The two shipped front delays are unrolled inline (a call per send
    # is a tenth of this phase), the skew sum parenthesised as
    # random.Random.uniform computes it.  A skew link's first delay draw
    # fixes its base, so every copy finds it set; a uniform link keeps
    # no state, so its copies may use the call.
    uniform = type(front_delay) is UniformDelay
    if uniform:
        low, span = front_delay.min_delay, front_delay.max_delay - front_delay.min_delay
    skew = type(front_delay) is PerLinkSkewDelay
    if skew:
        base_low, base_high = front_delay.base_range
        base_span = base_high - base_low
        jitter_low, jitter_high = front_delay.jitter_range
        jitter_span = jitter_high - jitter_low
    loss_model = config.front_loss_model
    front_outage = trial.front_outage
    fl_loss = trial.fl_loss
    fl_copies = trial.fl_copies
    outage_drops = trial.fl_drops["outage"]
    #: Keyed "loss" or "burst": a run draws from one loss process only.
    loss_drops = trial.fl_drops["loss" if loss_model is None else "burst"]
    #: (arrival_time, rank, tag, link_idx, update) per scheduled arrival.
    arrivals: list[tuple[float, int, int, int, Update]] = []
    arrivals_append = arrivals.append
    for dm_idx, batch in enumerate(batches):
        if not batch:
            continue
        for ce_idx in range(replication):
            li = dm_idx * replication + ce_idx
            rng = trial.fl_rng[li]
            rnd = rng.random
            draw = None if skew else _link_draw(front_delay, rng)
            base = None
            dropped = None if loss_model is None else loss_model.for_link(rng)
            loss = fl_loss[li]
            offset = ce_idx * slot
            outage = front_outage[ce_idx]
            down = () if outage is None else outage.windows
            wi = 0
            n_down = len(down)
            tag = -1
            for rank_base, time, factor, update in batch:
                tag += 1
                if wi < n_down:
                    # CrashSchedule.is_up as a cursor over the windows:
                    # send times only grow along a link.
                    while wi < n_down and down[wi][1] < time:
                        wi += 1
                    if wi < n_down and down[wi][0] <= time:
                        outage_drops[li] += 1
                        continue
                if dropped is not None:
                    if dropped():
                        loss_drops[li] += 1
                        continue
                elif rnd() < loss:
                    loss_drops[li] += 1
                    continue
                rank = rank_base + offset
                if uniform:
                    delay = low + span * rnd()
                elif skew:
                    if base is None:
                        base = base_low + base_span * rnd()
                    delay = base + (jitter_low + jitter_span * rnd())
                else:
                    delay = draw()
                delay *= factor
                if delay < 0:
                    raise _into_the_past(delay)
                arrivals_append((time + delay, rank, tag, li, update))
                if duplication is None:
                    continue
                copies = duplication.draw_copies(rng)
                fl_copies[li] += copies
                for copy in range(1, copies + 1):
                    delay = (
                        base + (jitter_low + jitter_span * rnd()) if skew
                        else draw()
                    ) * factor
                    if delay < 0:
                        raise _into_the_past(delay)
                    arrivals_append((time + delay, rank + copy, tag, li, update))

    # Phase 2 — front deliveries in (time, rank) order.  Back-link sends
    # happen inline (their RNG draws occur in delivery-fire order, exactly
    # as in the object kernel); deliveries to the AD are deferred to phase 3
    # since they touch only AD state.
    arrivals.sort()
    fl_last_tag = trial.fl_last_tag
    fl_drops = trial.fl_drops
    ce_crash = trial.ce_crash
    missed = trial.missed
    bl_draw = trial.bl_draw
    back_spikes = config.back_delay_spikes
    back_outage = trial.back_outage
    bl_last = trial.bl_last
    ad_avail = trial.ad_avail
    back_events = trial.back_events
    back_append = back_events.append

    # Membership events merge into the phase-2 stream by (time, seq): they
    # hold the globally lowest schedule seqs, so at equal time a rejoin or
    # catch-up fires before any delivery.  ``fire_mem`` drains all events
    # due at or before the limit; the guard below keeps the membership-off
    # hot path at a single dead comparison per delivery.
    mem_events = trial.mem_events if trial.mem_on else ()
    mn = len(mem_events)
    mi = 0

    def fire_mem(limit: float) -> None:
        nonlocal mi
        while mi < mn and mem_events[mi][0] <= limit:
            mtime, _order, mkind, mce, mev = mem_events[mi]
            mi += 1
            if mkind == 0:
                trial._mem_rejoin(mce, mev)
            else:
                trial._mem_catchup(mce, mev, mtime)

    # Per-link lookup tables: one list index replaces a modulo (and an
    # attribute lookup on the evaluator) in the delivery loop.
    li_ce = [li % replication for li in range(trial.n_links)]
    li_step = [trial.evaluators[ce_idx].step for ce_idx in li_ce]
    ce_keys = [keys.append for keys in trial.ce_keys]
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
        key = li_step[li](update)
        if key is None:
            continue
        ce_keys[ce_idx](key)
        # -- inline back-link send: _Trial._send_back, the one catch-up
        # replays call, without a method call per live alert ----------
        bdelay = bl_draw[ce_idx]()
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
        back_append((delivery, len(back_events), ce_idx, key))
    if mi < mn:
        fire_mem(float("inf"))

    # Phase 3 — AD deliveries in (time, brank) order, each key decided by
    # the ADAlgorithm object, the same filter the object kernel's AD node
    # runs.
    back_events.sort()
    arrival_ces_append = trial.arrival_ces.append
    ad_times_append = trial.ad_times.append
    shown_append = trial.shown.append
    algorithm = trial.algorithm
    decide = algorithm.decide
    for index, (time, _brank, ce_idx, key) in enumerate(back_events):
        arrival_ces_append(ce_idx)
        ad_times_append(time)
        if decide(key):
            shown_append(index)
        elif count is not None:
            count("ad", "filter", "AD", _Reason(algorithm, key))
    if count is not None:
        count("ad", "display", "AD", n=len(trial.shown))

    if count is not None:
        readings = len(merged) + sum(trial.suppressed)
        _count_run(
            trial, count, mn + readings + len(arrivals) + len(back_events)
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
        raised = len(trial.ce_keys[ce_idx])
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
    count("ad", "arrive", "AD", n=len(trial.arrival_ces))


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
