"""Mutations over the fuzzer's input space: ``TrialSpec × FaultProfile``.

A corpus entry is a plain :class:`~repro.engine.spec.TrialSpec` (which
already carries the scenario cell, seed, reading count, replication, the
sweepable front-loss override and an optional
:class:`~repro.faults.plan.FaultProfile>`).  Mutations draw from a
dedicated fuzz RNG — never from the simulation's own streams — and only
produce values the simulator accepts, using the profile-field metadata
(:data:`~repro.faults.plan.PROFILE_FIELD_KINDS`) instead of hard-coded
field lists so new fault knobs become mutable automatically.

The catalog deliberately mixes small nudges (seed ±k, a few readings
more or less) with template jumps (a chaos-profile transplant, a fresh
random seed): nudges exploit a behaviour the corpus already reached,
jumps escape plateaus.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

from repro.engine.spec import SCENARIO_MATRICES, TrialSpec
from repro.faults.plan import (
    DEFAULT_CHAOS_PROFILE,
    DEFAULT_CHURN_PROFILE,
    PROFILE_FIELD_KINDS,
    FaultProfile,
)
from repro.membership.config import (
    MEMBERSHIP_FIELD_KINDS,
    MembershipConfig,
)
from repro.sharding.ring import ShardConfig

__all__ = ["MutationLimits", "mutate_spec"]

#: Value templates per profile-field kind — chosen to straddle the
#: regimes that matter over a run horizon of a few hundred time units
#: (readings arrive every 10 units).
_KIND_TEMPLATES: dict[str, tuple[float, ...]] = {
    "rate": (0.0, 0.002, 0.004, 0.008, 0.016, 0.03),
    "mean": (0.0, 10.0, 25.0, 40.0, 80.0),
    "prob": (0.0, 0.05, 0.15, 0.4, 0.8),
    "factor": (1.0, 2.0, 4.0, 6.0, 10.0),
    "count": (1, 2, 3),
}

#: Front-link loss overrides worth visiting (None = the scenario's own).
_LOSS_TEMPLATES = (None, 0.0, 0.1, 0.3, 0.5, 0.7)

#: Chaos intensities for whole-profile transplants.
_CHAOS_INTENSITIES = (0.25, 0.5, 1.0, 2.0)

#: Value templates per membership-field kind (see
#: :data:`~repro.membership.config.MEMBERSHIP_FIELD_KINDS`).  Means cover
#: detection timeouts and catch-up/backoff latencies from instant to
#: longer than a crash repair; intervals straddle the reading cadence.
_MEMBERSHIP_TEMPLATES: dict[str, tuple] = {
    "interval": (1.0, 2.5, 5.0, 10.0, 20.0),
    "mean": (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    "count": (1, 2, 3),
    "choice": ("peer-then-log", "peer", "log", "none"),
}

#: Shard counts worth visiting (sharding is semantics-neutral by
#: contract — the fuzzer hunts for specs where that contract breaks).
_SHARD_TEMPLATES = (1, 2, 3, 4, 8)

#: Ring-shape knobs: virtual-node counts straddle badly- and
#: well-balanced rings; seeds re-dice every ownership boundary.
_VNODE_TEMPLATES = (1, 4, 16, 64, 128)
_RING_SEED_TEMPLATES = (0, 1, 2, 7, 97)


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


def _mutate_fault_field(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    name = rng.choice(sorted(PROFILE_FIELD_KINDS))
    profile = spec.faults if spec.faults is not None else FaultProfile()
    templates = _KIND_TEMPLATES[PROFILE_FIELD_KINDS[name]]
    profile = profile.with_value(name, rng.choice(templates))
    return replace(spec, faults=profile.or_none())


def _transplant_chaos(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    profile = DEFAULT_CHAOS_PROFILE.scaled(rng.choice(_CHAOS_INTENSITIES))
    return replace(spec, faults=profile)


def _drop_faults(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    return replace(spec, faults=None)


def _mutate_membership_field(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    """Turn one membership knob (detection timeout, heartbeat cadence,
    suspicion threshold, catch-up latency/backoff/source)."""
    name = rng.choice(sorted(MEMBERSHIP_FIELD_KINDS))
    config = spec.membership if spec.membership is not None else MembershipConfig()
    templates = _MEMBERSHIP_TEMPLATES[MEMBERSHIP_FIELD_KINDS[name]]
    return replace(spec, membership=config.with_value(name, rng.choice(templates)))


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
    count = rng.choice([n for n in _SHARD_TEMPLATES if n != current])
    if count == 1:
        return replace(spec, sharding=None)
    base = spec.sharding if spec.sharding is not None else ShardConfig()
    return replace(spec, sharding=base.resized(count))


def _mutate_ring(spec: TrialSpec, rng: Random, limits) -> TrialSpec:
    """Re-dice the ring under the same shard count: turn the
    virtual-node or ring-seed knob, so ownership boundaries move while
    the fleet size stays put (a pure ring-resize/re-dice probe)."""
    base = spec.sharding if spec.sharding is not None else ShardConfig(shards=2)
    if rng.random() < 0.5:
        base = base.with_value("virtual_nodes", rng.choice(_VNODE_TEMPLATES))
    else:
        base = base.with_value("ring_seed", rng.choice(_RING_SEED_TEMPLATES))
    return replace(spec, sharding=base)


#: (mutation, weight) — seed moves dominate (they are the cheapest way
#: to re-roll timing), fault-surface edits follow, structural knobs are
#: rarer.
_CATALOG = (
    (_mutate_seed, 4),
    (_nudge_seed, 4),
    (_mutate_fault_field, 4),
    (_mutate_updates, 3),
    (_mutate_membership_field, 3),
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
