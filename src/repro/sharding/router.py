"""Condition placement: which shard a condition lives on.

The ring (:mod:`repro.sharding.ring`) owns *variables*; conditions
co-locate with their data: a condition is **placed** on the shard that
owns its primary variable (the lexicographically smallest, so placement
is deterministic and independent of AST shape), and its other
variables' updates are pulled to that home shard, so multi-variable
semantics never cross a shard boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.condition import Condition
from repro.sharding.ring import HashRing, ShardConfig

__all__ = ["ShardAssignment", "assign_condition"]


@dataclass(frozen=True)
class ShardAssignment:
    """Where one condition lives on a ring."""

    config: ShardConfig
    #: The condition's home shard (ring owner of its primary variable).
    home: int
    #: The condition's primary (placement) variable.
    primary: str


def assign_condition(condition: Condition, config: ShardConfig) -> ShardAssignment:
    """Place ``condition`` on ``config``'s ring."""
    primary = min(condition.variables)
    return ShardAssignment(
        config=config, home=HashRing(config).shard_for(primary), primary=primary
    )
