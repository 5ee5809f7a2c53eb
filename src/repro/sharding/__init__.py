"""Sharded multi-tenant scale-out (conformance-tested).

Partitions the monitoring estate across shards with a consistent-hash
ring (:mod:`~repro.sharding.ring`), routes DM updates only to shards
whose conditions reference the variable (:mod:`~repro.sharding.router`,
reusing the degree inference of :mod:`repro.core.expressions`), runs
each shard as a full CE-replica-set + AD-merge instance on the existing
:class:`~repro.service.runtime.Runtime` interface
(:mod:`~repro.sharding.runtime`), and rebalances live via a seqno
high-water state handoff (:mod:`~repro.sharding.handoff`).  The
guarantee is the same as the service runtime's: any sharded
configuration — any shard count, any ring dicing, resized mid-feed —
must display **byte-identical** alert frames and identical property
verdicts to the single-set reference.
"""

from repro.sharding.handoff import ShardHost, ShardState
from repro.sharding.ring import HashRing, ShardConfig, moved_keys
from repro.sharding.router import ShardAssignment, assign_condition, split_feed
from repro.sharding.runtime import (
    ShardedRuntime,
    execute_rebalanced,
    sharded_runtimes,
)

__all__ = [
    "HashRing",
    "ShardConfig",
    "moved_keys",
    "ShardAssignment",
    "assign_condition",
    "split_feed",
    "ShardHost",
    "ShardState",
    "ShardedRuntime",
    "execute_rebalanced",
    "sharded_runtimes",
]
