"""Consistent-hash ring — the variables→shards map of the scale-out plan.

A :class:`ShardConfig` names a ring the way
:class:`~repro.faults.plan.FaultProfile` names a fault surface: all
scalars, picklable, hashable, JSON-round-trippable; its fields are
:mod:`repro.knobs` kinds, like the fault profile's.

:class:`HashRing` materializes the config into the classic structure:
every shard contributes ``virtual_nodes`` points on a 64-bit circle
(position = BLAKE2b of ``"<ring_seed>/<shard>/<vnode>"`` — *never*
Python's randomized ``hash()``), and a key belongs to the shard owning
the first ring point at or after the key's own hash, wrapping around.
Virtual nodes bound the load imbalance; hashing shard identities (rather
than slicing the circle evenly) gives the *minimal movement* property:
resizing from N to N+1 shards only moves keys whose new successor point
belongs to the new shard — everything else stays put, which is what
makes a live rebalance (ring resize → per-variable state handoff) cheap.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterable, Mapping

from repro.knobs import RING_SEED, SHARDS, VIRTUAL_NODES, KnobSet, knob

__all__ = ["ShardConfig", "HashRing", "moved_keys"]


@dataclass(frozen=True)
class ShardConfig(KnobSet):
    """One ring: how many shards, how finely diced, under which salt."""

    #: Number of shards (independent per-shard replica sets + AD merges).
    shards: int = knob(1, SHARDS)
    #: Ring points per shard.  More points → tighter balance bound at
    #: O(shards × virtual_nodes log ·) ring build cost; 64 keeps the
    #: max/mean load under ~1.5 for the shard counts swept here.
    virtual_nodes: int = knob(64, VIRTUAL_NODES)
    #: Salt folded into every ring-point hash, so rings can be re-diced
    #: without changing any other knob.
    ring_seed: int = knob(0, RING_SEED)

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
            for vnode in range(config.virtual_nodes):
                position = _hash64(f"{config.ring_seed}/{shard}/{vnode}")
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

    def assignment(self, keys: Iterable[str]) -> dict[str, int]:
        """``{key: shard}`` for every key, in input order."""
        return {key: self.shard_for(key) for key in keys}

    def loads(self, keys: Iterable[str]) -> list[int]:
        """Keys owned per shard (index = shard id)."""
        counts = [0] * self.config.shards
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts


def moved_keys(
    before: Mapping[str, int], after: Mapping[str, int]
) -> dict[str, tuple[int, int]]:
    """``{key: (old_shard, new_shard)}`` for keys that changed owner."""
    return {
        key: (before[key], after[key])
        for key in before
        if key in after and before[key] != after[key]
    }
