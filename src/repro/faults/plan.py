"""Composable, deterministic fault plans.

Two layers, mirroring how the rest of the repo separates *what happened*
from *how it was drawn*:

* :class:`FaultPlan` — the concrete fault surface of one run: per-node
  crash windows for CEs, DMs and the AD, per-link outage windows, delay
  spike windows, and the stochastic link adversaries (burst loss,
  duplication).  A plan folds into a
  :class:`~repro.components.system.SystemConfig` with
  :meth:`FaultPlan.apply_to`; it is always re-drawn from its profile,
  never serialized.
* :class:`FaultProfile` — the *distribution* those windows are drawn
  from: plain scalar rates and probabilities, each declared as a
  :mod:`repro.knobs` kind, picklable and JSON-round-trippable, so it can
  ride on a :class:`~repro.engine.spec.TrialSpec` across process
  boundaries and through trace headers.
  :meth:`FaultProfile.materialize` draws a concrete plan from a run's
  named RNG streams — fault draws never shift the workload or link
  streams, so a zero-rate profile is bit-identical to no profile at all.

Intensity sweeps (``repro sweep chaos``) use :meth:`FaultProfile.scaled`
to turn one profile into a family parameterised by a single chaos knob.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.faults.model import (
    DelaySpikeSchedule,
    DuplicationAdversary,
    GilbertElliottParams,
)
from repro.knobs import (
    COPIES,
    FACTOR,
    MEAN,
    PROB,
    RATE,
    RECOVERY,
    KnobSet,
    knob,
)
from repro.simulation.failures import CrashSchedule, random_crash_schedule

if TYPE_CHECKING:  # avoid repro.components import at module load
    from repro.components.system import SystemConfig
    from repro.simulation.rng import RandomStreams

__all__ = [
    "FaultPlan",
    "FaultProfile",
    "DEFAULT_CHAOS_PROFILE",
    "DEFAULT_CHURN_PROFILE",
]


def _union(a: Mapping, b: Mapping) -> dict:
    """Per-key :meth:`CrashSchedule.union` of two window maps."""
    out = dict(a)
    for key, schedule in b.items():
        out[key] = out[key].union(schedule) if key in out else schedule
    return out


@dataclass(frozen=True)
class FaultPlan:
    """The concrete fault surface of one run."""

    #: CE index -> crash windows (updates delivered while down are missed).
    ce_crashes: Mapping[int, CrashSchedule] = field(default_factory=dict)
    #: Variable name -> DM crash windows (readings while down never sent).
    dm_crashes: Mapping[str, CrashSchedule] = field(default_factory=dict)
    #: AD (PDA) downtime; back links store-and-forward across it.
    ad_crash: CrashSchedule | None = None
    #: CE index -> front-link outage windows (datagrams lost, no retransmit).
    front_outages: Mapping[int, CrashSchedule] = field(default_factory=dict)
    #: CE index -> back-link outage windows (TCP stalls: delayed, not lost).
    back_outages: Mapping[int, CrashSchedule] = field(default_factory=dict)
    #: Correlated burst loss replacing Bernoulli loss on front links.
    burst_loss: GilbertElliottParams | None = None
    #: Bounded duplication adversary on front links.
    duplication: DuplicationAdversary | None = None
    #: Congestion windows on front / back links.
    front_delay_spikes: DelaySpikeSchedule | None = None
    back_delay_spikes: DelaySpikeSchedule | None = None

    @property
    def is_clean(self) -> bool:
        """True iff applying this plan cannot perturb a run."""
        return (
            not any(s.windows for s in self.ce_crashes.values())
            and not any(s.windows for s in self.dm_crashes.values())
            and (self.ad_crash is None or not self.ad_crash.windows)
            and not any(s.windows for s in self.front_outages.values())
            and not any(s.windows for s in self.back_outages.values())
            and (self.burst_loss is None or not self.burst_loss.enabled)
            and (self.duplication is None or not self.duplication.enabled)
            and (
                self.front_delay_spikes is None
                or not self.front_delay_spikes.enabled
            )
            and (
                self.back_delay_spikes is None
                or not self.back_delay_spikes.enabled
            )
        )

    def apply_to(self, config: "SystemConfig") -> "SystemConfig":
        """Fold this plan into a system config (returns a new config).

        Existing config fault fields are merged, not replaced: a scenario
        that already crashes CE 0 keeps those windows, unioned with the
        plan's.  A clean plan returns the config unchanged, so the
        faults-off path is exactly the pre-faults path.
        """
        if self.is_clean:
            return config
        ad_crash = config.ad_crash_schedule
        if self.ad_crash is not None and self.ad_crash.windows:
            ad_crash = (
                self.ad_crash if ad_crash is None else ad_crash.union(self.ad_crash)
            )
        return replace(
            config,
            crash_schedules=_union(config.crash_schedules, self.ce_crashes),
            dm_crash_schedules=_union(config.dm_crash_schedules, self.dm_crashes),
            ad_crash_schedule=ad_crash,
            front_outages=_union(config.front_outages, self.front_outages),
            back_outages=_union(config.back_outages, self.back_outages),
            front_loss_model=(
                self.burst_loss.make_model()
                if self.burst_loss is not None and self.burst_loss.enabled
                else config.front_loss_model
            ),
            front_duplication=self.duplication or config.front_duplication,
            front_delay_spikes=self.front_delay_spikes or config.front_delay_spikes,
            back_delay_spikes=self.back_delay_spikes or config.back_delay_spikes,
        )


#: Profile fields that scale linearly with chaos intensity (rates and
#: entry probabilities).  Mean durations and recovery probabilities stay
#: fixed — intensity makes faults *more frequent*, not longer.
_SCALED_FIELDS = (
    "ce_crash_rate",
    "dm_crash_rate",
    "ad_crash_rate",
    "front_outage_rate",
    "back_outage_rate",
    "burst_good_to_bad",
    "burst_loss_good",
    "duplicate_prob",
    "delay_spike_rate",
)


@dataclass(frozen=True)
class FaultProfile(KnobSet):
    """Scalar fault-distribution knobs; the picklable spec-level carrier.

    All-zero rates (the default) materialize to a clean plan, so a
    profile is safe to thread everywhere unconditionally.  Rates are per
    unit of simulated time (readings arrive every 10 units); ``mean_*``
    are exponential means.
    """

    ce_crash_rate: float = knob(0.0, RATE)
    ce_mean_repair: float = knob(0.0, MEAN)
    dm_crash_rate: float = knob(0.0, RATE)
    dm_mean_repair: float = knob(0.0, MEAN)
    ad_crash_rate: float = knob(0.0, RATE)
    ad_mean_repair: float = knob(0.0, MEAN)
    front_outage_rate: float = knob(0.0, RATE)
    front_mean_outage: float = knob(0.0, MEAN)
    back_outage_rate: float = knob(0.0, RATE)
    back_mean_outage: float = knob(0.0, MEAN)
    burst_good_to_bad: float = knob(0.0, PROB)
    burst_bad_to_good: float = knob(1.0, RECOVERY)
    burst_loss_good: float = knob(0.0, PROB)
    burst_loss_bad: float = knob(0.0, PROB)
    duplicate_prob: float = knob(0.0, PROB)
    max_duplicates: int = knob(1, COPIES)
    delay_spike_rate: float = knob(0.0, RATE)
    delay_spike_mean: float = knob(0.0, MEAN)
    delay_spike_factor: float = knob(1.0, FACTOR)

    @property
    def is_clean(self) -> bool:
        """True iff materialization always yields a clean plan."""
        return (
            self.ce_crash_rate == 0
            and self.dm_crash_rate == 0
            and self.ad_crash_rate == 0
            and self.front_outage_rate == 0
            and self.back_outage_rate == 0
            and not self._burst_loss().enabled
            and self.duplicate_prob == 0
            and self.delay_spike_rate == 0
        )

    def _burst_loss(self) -> GilbertElliottParams:
        """The burst-loss chain, with probabilities above 1 clamped."""
        return GilbertElliottParams(
            good_to_bad=min(self.burst_good_to_bad, 1.0),
            bad_to_good=min(self.burst_bad_to_good, 1.0),
            loss_good=min(self.burst_loss_good, 1.0),
            loss_bad=min(self.burst_loss_bad, 1.0),
        )

    def scaled(self, intensity: float) -> "FaultProfile":
        """This profile with every fault *rate* scaled by ``intensity``.

        ``intensity = 0`` is a clean profile; ``1`` is this profile;
        ``> 1`` turns the dials up (probabilities clamp at 1).  The spike
        delay factor interpolates as ``1 + (factor - 1) * intensity``.
        """
        if intensity < 0:
            raise ValueError(f"intensity must be non-negative, got {intensity}")
        kinds = dict(self.knobs())
        changes = {
            name: kinds[name].clamp(getattr(self, name) * intensity)
            for name in _SCALED_FIELDS
        }
        changes["delay_spike_factor"] = (
            1.0 + (self.delay_spike_factor - 1.0) * intensity
        )
        return replace(self, **changes)

    def or_none(self) -> "FaultProfile | None":
        """This profile, or ``None`` when it is clean — the value a
        ``TrialSpec.faults`` takes, so a fault-free trial (an intensity-0
        sweep cell, a fully shrunk witness) has one spelling."""
        return None if self.is_clean else self

    def materialize(
        self,
        streams: "RandomStreams",
        horizon: float,
        replication: int,
        variables: Sequence[str],
    ) -> FaultPlan:
        """Draw one concrete plan from named streams of the run seed.

        Every draw comes from a ``faults/...`` stream, so materializing a
        plan never shifts the workload or link randomness — a clean
        profile leaves the run bit-identical to no profile at all.
        """
        ce_crashes: dict[int, CrashSchedule] = {}
        front_outages: dict[int, CrashSchedule] = {}
        back_outages: dict[int, CrashSchedule] = {}
        for index in range(replication):
            if self.ce_crash_rate > 0:
                ce_crashes[index] = random_crash_schedule(
                    streams.stream(f"faults/ce/{index}"),
                    horizon,
                    self.ce_crash_rate,
                    self.ce_mean_repair,
                )
            if self.front_outage_rate > 0:
                front_outages[index] = random_crash_schedule(
                    streams.stream(f"faults/front-outage/{index}"),
                    horizon,
                    self.front_outage_rate,
                    self.front_mean_outage,
                )
            if self.back_outage_rate > 0:
                back_outages[index] = random_crash_schedule(
                    streams.stream(f"faults/back-outage/{index}"),
                    horizon,
                    self.back_outage_rate,
                    self.back_mean_outage,
                )
        dm_crashes: dict[str, CrashSchedule] = {}
        if self.dm_crash_rate > 0:
            for varname in sorted(variables):
                dm_crashes[varname] = random_crash_schedule(
                    streams.stream(f"faults/dm/{varname}"),
                    horizon,
                    self.dm_crash_rate,
                    self.dm_mean_repair,
                )
        ad_crash = None
        if self.ad_crash_rate > 0:
            ad_crash = random_crash_schedule(
                streams.stream("faults/ad"),
                horizon,
                self.ad_crash_rate,
                self.ad_mean_repair,
            )
        burst = self._burst_loss()
        duplication = DuplicationAdversary(
            duplicate_prob=min(self.duplicate_prob, 1.0),
            max_copies=max(1, int(self.max_duplicates)),
        )
        front_spikes = back_spikes = None
        if self.delay_spike_rate > 0 and self.delay_spike_factor > 1.0:
            front_spikes = DelaySpikeSchedule(
                windows=random_crash_schedule(
                    streams.stream("faults/spike/front"),
                    horizon,
                    self.delay_spike_rate,
                    self.delay_spike_mean,
                ).windows,
                factor=self.delay_spike_factor,
            )
            back_spikes = DelaySpikeSchedule(
                windows=random_crash_schedule(
                    streams.stream("faults/spike/back"),
                    horizon,
                    self.delay_spike_rate,
                    self.delay_spike_mean,
                ).windows,
                factor=self.delay_spike_factor,
            )
        return FaultPlan(
            ce_crashes=ce_crashes,
            dm_crashes=dm_crashes,
            ad_crash=ad_crash,
            front_outages=front_outages,
            back_outages=back_outages,
            burst_loss=burst if burst.enabled else None,
            duplication=duplication if duplication.enabled else None,
            front_delay_spikes=front_spikes,
            back_delay_spikes=back_spikes,
        )

    @classmethod
    def chaos_default(cls) -> "FaultProfile":
        """The reference chaos profile the CLI sweeps.

        At intensity 1 roughly one CE crash and one outage per ~120
        simulated time units (a 30-reading run spans ~300), short repair
        times, moderate bursts, rare duplication, occasional 6x
        congestion spikes — enough that every fault class fires in most
        trials without drowning the workload entirely.
        """
        return cls(
            ce_crash_rate=0.008,
            ce_mean_repair=50.0,
            dm_crash_rate=0.004,
            dm_mean_repair=30.0,
            ad_crash_rate=0.006,
            ad_mean_repair=40.0,
            front_outage_rate=0.006,
            front_mean_outage=30.0,
            back_outage_rate=0.004,
            back_mean_outage=25.0,
            burst_good_to_bad=0.15,
            burst_bad_to_good=0.4,
            burst_loss_good=0.02,
            burst_loss_bad=0.7,
            duplicate_prob=0.08,
            max_duplicates=2,
            delay_spike_rate=0.004,
            delay_spike_mean=40.0,
            delay_spike_factor=6.0,
        )


    @classmethod
    def churn_default(cls) -> "FaultProfile":
        """The reference *churn* profile for membership sweeps.

        CE crashes only, frequent and short — the fault class dynamic
        membership heals — so the detection-timeout × catch-up-latency
        dimensions of a churn sweep are not confounded by link loss or
        AD downtime.
        """
        return cls(ce_crash_rate=0.02, ce_mean_repair=25.0)


#: The profile ``repro sweep chaos`` and ``repro trace record --chaos`` scale.
DEFAULT_CHAOS_PROFILE = FaultProfile.chaos_default()

#: The CE-crash-only profile churn sweeps scale (``repro sweep churn``).
DEFAULT_CHURN_PROFILE = FaultProfile.churn_default()
