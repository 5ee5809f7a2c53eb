"""Multi-tenant scale-out (conformance-tested).

Partitions a population of conditions across shards with a
consistent-hash ring (:mod:`~repro.sharding.ring`) and runs each
shard's tenants through the same semantic core as everything else
(:mod:`~repro.sharding.tenants`).  One monitored condition occupies one
shard, so sharding does work only where many conditions share a ring.
The guarantee: a tenant population folds to the same output at every
shard count.
"""

from repro.sharding.ring import HashRing, ShardConfig

__all__ = ["HashRing", "ShardConfig"]
