"""Multi-tenant scale-out (conformance-tested).

Partitions a population of conditions across shards with a
consistent-hash ring (:mod:`~repro.sharding.ring`), places each
condition on the shard owning its primary variable
(:mod:`~repro.sharding.router`), runs each shard's tenants through the
same semantic core as everything else (:mod:`~repro.sharding.tenants`),
and rebalances live via a seqno high-water state handoff
(:mod:`~repro.sharding.handoff`, :mod:`~repro.sharding.runtime`).  One
monitored condition occupies one shard, so sharding does work only where
many conditions share a ring.  The guarantees: a tenant population
folds to the same output at every shard count, and a ring resize
mid-feed displays **byte-identical** alert frames and identical property
verdicts to the single-set reference runtime.
"""

from repro.sharding.handoff import ShardHost, ShardState
from repro.sharding.ring import HashRing, ShardConfig, moved_keys
from repro.sharding.router import ShardAssignment, assign_condition
from repro.sharding.runtime import execute_rebalanced

__all__ = [
    "HashRing",
    "ShardConfig",
    "moved_keys",
    "ShardAssignment",
    "assign_condition",
    "ShardHost",
    "ShardState",
    "execute_rebalanced",
]
