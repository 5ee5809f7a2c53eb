"""Mutations over the fuzzer's input space: ``TrialSpec × FaultProfile``.

A corpus entry is a plain :class:`~repro.engine.spec.TrialSpec` (which
already carries the scenario cell, seed, reading count, replication, the
sweepable front-loss override and an optional
:class:`~repro.faults.plan.FaultProfile>`).  Mutations draw from a
dedicated fuzz RNG — never from the simulation's own streams — and only
produce values the simulator accepts: a fault-profile or membership knob
is set to one of its :mod:`repro.knobs` kind's templates through the
clamping ``with_value``, so a newly declared knob is mutable
automatically.

The catalog deliberately mixes small nudges (seed ±k, a few readings
more or less) with template jumps (a chaos-profile transplant, a fresh
random seed): nudges exploit a behaviour the corpus already reached,
jumps escape plateaus.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from random import Random

from repro.engine.spec import SCENARIO_MATRICES, TrialSpec
from repro.faults.plan import (
    DEFAULT_CHAOS_PROFILE,
    DEFAULT_CHURN_PROFILE,
    FaultProfile,
)
from repro.knobs import SHARDS, KnobSet
from repro.membership.config import MembershipConfig
from repro.sharding.ring import ShardConfig

__all__ = ["MutationLimits", "mutate_spec"]

#: Front-link loss overrides worth visiting (None = the scenario's own).
_LOSS_TEMPLATES = (None, 0.0, 0.1, 0.3, 0.5, 0.7)

#: Chaos intensities for whole-profile transplants.
_CHAOS_INTENSITIES = (0.25, 0.5, 1.0, 2.0)


class MutationLimits:
    """Bounds the mutator keeps spec scalars inside."""

    def __init__(
        self,
        min_updates: int = 4,
        max_updates: int = 40,
        max_replication: int = 3,
    ) -> None:
        if min_updates < 1 or max_updates < min_updates:
            raise ValueError(
                f"bad update bounds [{min_updates}, {max_updates}]"
            )
        self.min_updates = min_updates
        self.max_updates = max_updates
        self.max_replication = max(1, max_replication)


def _mutate_seed(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    return replace(spec, seed=rng.randrange(1 << 31))


def _nudge_seed(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    delta = rng.choice((-16, -4, -2, -1, 1, 2, 4, 16))
    return replace(spec, seed=abs(spec.seed + delta))


def _mutate_updates(spec: TrialSpec, rng: Random, limits: MutationLimits) -> TrialSpec:
    delta = rng.choice((-6, -3, -1, 1, 3, 6))
    n = min(max(spec.n_updates + delta, limits.min_updates), limits.max_updates)
    return replace(spec, n_updates=n)


def _mutate_replication(spec: TrialSpec, rng: Random, limits: MutationLimits) -> TrialSpec:
    return replace(spec, replication=rng.randint(1, limits.max_replication))


def _mutate_loss(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    return replace(spec, front_loss=rng.choice(_LOSS_TEMPLATES))


def _mutate_knob(
    attr: str, fresh: KnobSet, spec: TrialSpec, rng: Random, limits
) -> TrialSpec:
    """Set one knob of the spec's ``attr`` knob set (``fresh`` when it
    has none) to a template of its kind — a crash rate, a burst
    probability, a detection timeout, a catch-up source — keeping a
    clean fault profile as ``None``."""
    config = getattr(spec, attr)
    if config is None:
        config = fresh
    kinds = dict(config.knobs())
    name = rng.choice(sorted(kinds))
    config = config.with_value(name, rng.choice(kinds[name].templates))
    if attr == "faults":
        config = config.or_none()
    return replace(spec, **{attr: config})


def _transplant_chaos(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    profile = DEFAULT_CHAOS_PROFILE.scaled(rng.choice(_CHAOS_INTENSITIES))
    return replace(spec, faults=profile)


def _drop_faults(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    return replace(spec, faults=None)


def _toggle_membership(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    """Flip the recovery lifecycle on or off for the same fault surface."""
    if spec.membership is not None:
        return replace(spec, membership=None)
    return replace(spec, membership=MembershipConfig())


def _transplant_churn(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    """Jump to a join/leave/recover regime: CE-crash-heavy faults plus a
    fresh default membership config, so detection and catch-up actually
    have crashes to heal."""
    profile = DEFAULT_CHURN_PROFILE.scaled(rng.choice(_CHAOS_INTENSITIES))
    return replace(spec, faults=profile, membership=MembershipConfig())


def _mutate_row(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    """Jump to another scenario row of the same matrix — including the
    diversity rows (bursty / zipfian / correlated traffic shapes), which
    live outside the tables' ROW_ORDER but are fully simulable.  Staying
    within the matrix preserves the variable count, so single-variable
    algorithms (AD-2/3/4) remain constructible."""
    rows = sorted(SCENARIO_MATRICES[spec.matrix])
    others = [row for row in rows if row != spec.row]
    if not others:
        return spec
    return replace(spec, row=rng.choice(others))


def _mutate_shards(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    """Move the run to a different shard count (1 = drop sharding)."""
    current = spec.sharding.shards if spec.sharding is not None else 1
    count = rng.choice([n for n in SHARDS.templates if n != current])
    if count == 1:
        return replace(spec, sharding=None)
    base = spec.sharding if spec.sharding is not None else ShardConfig()
    return replace(spec, sharding=base.with_value("shards", count))


def _mutate_ring(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    """Re-dice the ring under the same shard count: turn the
    virtual-node or ring-seed knob, so ownership boundaries move while
    the fleet size stays put (a pure ring-resize/re-dice probe)."""
    base = spec.sharding if spec.sharding is not None else ShardConfig(shards=2)
    name = "virtual_nodes" if rng.random() < 0.5 else "ring_seed"
    base = base.with_value(name, rng.choice(dict(base.knobs())[name].templates))
    return replace(spec, sharding=base)


#: (mutation, weight) — seed moves dominate (they are the cheapest way
#: to re-roll timing), fault-surface edits follow, structural knobs are
#: rarer.
_CATALOG = (
    (_mutate_seed, 4),
    (_nudge_seed, 4),
    (partial(_mutate_knob, "faults", FaultProfile()), 4),
    (_mutate_updates, 3),
    (partial(_mutate_knob, "membership", MembershipConfig()), 3),
    (_mutate_loss, 2),
    (_mutate_row, 2),
    (_transplant_chaos, 1),
    (_transplant_churn, 1),
    (_mutate_replication, 1),
    (_drop_faults, 1),
    (_toggle_membership, 1),
    (_mutate_shards, 1),
    (_mutate_ring, 1),
)
_MUTATIONS = tuple(m for m, w in _CATALOG for _ in range(w))


def mutate_spec(
    spec: TrialSpec, rng: Random, limits: MutationLimits | None = None
) -> TrialSpec:
    """One mutated child of ``spec`` (1–2 catalog mutations stacked)."""
    limits = limits or MutationLimits()
    child = spec
    for _ in range(rng.randint(1, 2)):
        child = rng.choice(_MUTATIONS)(child, rng, limits)
    return child
