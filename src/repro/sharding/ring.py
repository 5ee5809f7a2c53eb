"""Consistent-hash ring — the variables→shards map of the scale-out plan.

A :class:`ShardConfig` names a ring the way
:class:`~repro.faults.plan.FaultProfile` names a fault surface: all
scalars, picklable, hashable, JSON-round-trippable; its fields are
:mod:`repro.knobs` kinds, like the fault profile's.

:class:`HashRing` materializes the config into the classic structure:
every shard contributes :data:`POINTS_PER_SHARD` points on a 64-bit
circle (position = BLAKE2b of ``"<RING_SALT>/<shard>/<point>"`` — *never*
Python's randomized ``hash()``), and a key belongs to the shard owning
the first ring point at or after the key's own hash, wrapping around.
The points per shard bound the load imbalance.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from hashlib import blake2b

from repro.knobs import SHARDS, KnobSet, knob

__all__ = ["ShardConfig", "HashRing"]

#: Ring points per shard.  More points → tighter balance bound at
#: O(shards × points log ·) ring build cost; 64 keeps the max/mean load
#: under ~1.5 for the shard counts swept here.
POINTS_PER_SHARD = 64
#: Salt folded into every ring-point hash.  Changing it re-dices every
#: tenant's placement.
RING_SALT = 0


@dataclass(frozen=True)
class ShardConfig(KnobSet):
    """One ring: how many shards."""

    #: Number of shards (independent per-shard replica sets + AD merges).
    shards: int = knob(1, SHARDS)

    @property
    def is_single(self) -> bool:
        """True iff the ring cannot split anything (one shard)."""
        return self.shards == 1


def _hash64(key: str) -> int:
    """A process-stable 64-bit hash (PYTHONHASHSEED-independent)."""
    return int.from_bytes(blake2b(key.encode(), digest_size=8).digest(), "big")


class HashRing:
    """The materialized ring of one :class:`ShardConfig`.

    Deterministic: two rings built from equal configs assign every key
    identically, in any process (the Hypothesis suite pins this).
    """

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        points: list[tuple[int, int]] = []
        for shard in range(config.shards):
            for point in range(POINTS_PER_SHARD):
                position = _hash64(f"{RING_SALT}/{shard}/{point}")
                points.append((position, shard))
        # Sorting by (position, shard) makes even the astronomically
        # unlikely position collision deterministic.
        points.sort()
        self._positions = [position for position, _ in points]
        self._shards = [shard for _, shard in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key``: first ring point ≥ hash(key), wrapping."""
        if self.config.is_single:
            return 0
        index = bisect_left(self._positions, _hash64(key))
        if index == len(self._positions):
            index = 0
        return self._shards[index]
