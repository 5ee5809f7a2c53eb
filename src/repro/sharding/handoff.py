"""Shard state handoff — the rebalance path's catch-up protocol.

When the ring resizes mid-run, a condition whose home shard changed must
move *with its state*: each CE replica's incorporated update log and its
per-variable **seqno high-water vector**.  The mechanism mirrors
membership catch-up (:mod:`repro.membership`): the departing shard
exports an all-scalar :class:`ShardState` (JSON-round-trippable, so the
handoff could cross a real wire), the receiving shard rebuilds every CE
replica by replaying the log through a fresh
:class:`~repro.core.evaluator.ConditionEvaluator` — sound because the
CE mapping is deterministic, ``A_i = T(U_i)`` — and the high-water
vector then guards the cutover: any delivery still in flight to the old
shard that gets re-forwarded after the handoff is recognized as stale
(``seqno <= high_water[var]``) and dropped instead of double-ingested.

:class:`ShardHost` is the unit the rebalancing runtime executes on: one
shard's CE replica set for one condition, with the export/restore pair
and the stale guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.evaluator import ConditionEvaluator
from repro.core.serialization import update_from_json, update_to_json
from repro.core.update import Update

__all__ = ["ShardState", "ShardHost"]


@dataclass(frozen=True)
class ShardState:
    """The transferable state of one shard's CE replica set.

    All plain values — the JSON round trip (:meth:`to_json_obj` /
    :meth:`from_json_obj`) is pinned by the unit suite so a handoff
    serializes byte-stably.
    """

    shard: int
    #: Per CE: the update log it incorporated, in ingest order.
    logs: tuple[tuple[Update, ...], ...]
    #: Per CE: ``{var: highest seqno ingested}`` — the stale guard.
    high_water: tuple[dict[str, int], ...]
    #: Per CE: alerts already raised (and stamped) before the handoff.
    emitted: tuple[int, ...]

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "logs": [
                [update_to_json(u) for u in log] for log in self.logs
            ],
            "high_water": [
                dict(sorted(hw.items())) for hw in self.high_water
            ],
            "emitted": list(self.emitted),
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "ShardState":
        return cls(
            shard=int(obj["shard"]),
            logs=tuple(
                tuple(update_from_json(u) for u in log)
                for log in obj["logs"]
            ),
            high_water=tuple(
                {str(k): int(v) for k, v in hw.items()}
                for hw in obj["high_water"]
            ),
            emitted=tuple(int(n) for n in obj["emitted"]),
        )


class ShardHost:
    """One shard's replica set for one condition.

    Ingests routed deliveries per CE replica, tracks the per-variable
    seqno high-water, and can export/restore its whole state for a
    rebalance handoff.
    """

    def __init__(
        self, shard: int, condition: Condition, replication: int
    ) -> None:
        self.shard = shard
        self.condition = condition
        self.evaluators = [
            ConditionEvaluator(condition, source=f"CE{i + 1}")
            for i in range(replication)
        ]
        self._high_water: list[dict[str, int]] = [
            {} for _ in range(replication)
        ]
        #: Deliveries refused by the stale guard (per CE).
        self.stale_dropped = [0] * replication

    @property
    def replication(self) -> int:
        return len(self.evaluators)

    def ingest(self, ce_index: int, update: Update) -> Alert | None:
        """Route one delivery into CE ``ce_index``; None if no alert.

        Applies the stale guard first: after a handoff, a duplicate
        forwarded to the new host must not re-trigger evaluation.
        """
        high_water = self._high_water[ce_index]
        last = high_water.get(update.varname)
        if last is not None and update.seqno <= last:
            self.stale_dropped[ce_index] += 1
            return None
        alert = self.evaluators[ce_index].ingest(update)
        # The evaluator ignores unreferenced variables entirely; only
        # advance the guard for updates it actually incorporated.
        if update.varname in self.condition.variables:
            high_water[update.varname] = update.seqno
        return alert

    def per_ce_alerts(self) -> tuple[tuple[Alert, ...], ...]:
        return tuple(evaluator.alerts for evaluator in self.evaluators)

    def received(self) -> tuple[tuple[Update, ...], ...]:
        return tuple(evaluator.received for evaluator in self.evaluators)

    # -- handoff -------------------------------------------------------------
    def export_state(self) -> ShardState:
        """Freeze this host's state for transfer to another shard."""
        return ShardState(
            shard=self.shard,
            logs=self.received(),
            high_water=tuple(dict(hw) for hw in self._high_water),
            emitted=tuple(
                len(evaluator.alerts) for evaluator in self.evaluators
            ),
        )

    @classmethod
    def restore(
        cls, shard: int, condition: Condition, state: ShardState
    ) -> "ShardHost":
        """Rebuild a host on ``shard`` from a transferred state.

        Replays each CE's log through a fresh evaluator — ``A_i =
        T(U_i)`` makes this reproduce the exact alert history — then
        verifies the replay regenerated the alerts the old host had
        already stamped (a mismatch means the state was tampered with or
        the evaluator drifted, the rebalance analogue of
        :class:`~repro.service.runtime.FeedMismatchError`).
        """
        host = cls(shard, condition, replication=len(state.logs))
        for ce_index, log in enumerate(state.logs):
            host.evaluators[ce_index].ingest_all(log)
            regenerated = len(host.evaluators[ce_index].alerts)
            if regenerated != state.emitted[ce_index]:
                raise ValueError(
                    f"handoff replay of CE{ce_index + 1} regenerated "
                    f"{regenerated} alerts but {state.emitted[ce_index]} "
                    "were already emitted — the transferred log does not "
                    "reproduce the pre-handoff run"
                )
            host._high_water[ce_index] = dict(state.high_water[ce_index])
        return host
