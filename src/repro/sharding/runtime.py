"""A ring resize mid-feed, behind the
:class:`~repro.service.runtime.Runtime` result type.

:func:`execute_rebalanced` runs the deliveries before the cut on the
condition's old home shard, moves its state to the new home via the
JSON-round-tripped handoff protocol (:mod:`repro.sharding.handoff`), and
runs the remainder there.  It produces an ordinary
:class:`~repro.service.runtime.FeedResult`, so
:class:`~repro.service.runtime.ConformanceReport` diffs it against
``DirectRuntime`` directly; byte-identity with the direct core is the
rebalance guarantee the property and conformance suites enforce.
"""

from __future__ import annotations

from repro.core.alert import Alert
from repro.service.feed import UpdateFeed
from repro.service.runtime import FeedResult, merge_stamped
from repro.sharding.handoff import ShardHost, ShardState
from repro.sharding.ring import ShardConfig
from repro.sharding.router import assign_condition

__all__ = ["execute_rebalanced"]


def execute_rebalanced(
    feed: UpdateFeed,
    config: ShardConfig,
    rebalance_at: int,
    new_config: ShardConfig,
) -> FeedResult:
    """Execute ``feed`` with a ring resize after ``rebalance_at`` deliveries.

    The handoff is exercised for real: the departing host's state is
    exported, JSON-round-tripped (as it would cross a wire), and
    restored on the new home shard; the stale guard then protects the
    cutover.  When the resize does not move the condition's home, the
    run degenerates to the static path — which is the point: minimal
    movement makes most resizes free.
    """
    condition = feed.condition()
    host = ShardHost(
        assign_condition(condition, config).home, condition, len(feed.stamps)
    )
    handoffs = 0
    for index, (ce_index, update) in enumerate(feed.deliveries):
        if index == rebalance_at:
            home = assign_condition(condition, new_config).home
            if home != host.shard:
                state = ShardState.from_json_obj(
                    host.export_state().to_json_obj()
                )
                host = ShardHost.restore(home, condition, state)
                handoffs += 1
        host.ingest(ce_index, update)
    arrivals = merge_stamped(host.per_ce_alerts(), feed.stamps)
    from repro.displayers.registry import make_ad
    from repro.props.report import evaluate_run

    algorithm = make_ad(feed.spec["algorithm"], condition)
    algorithm.offer_all(arrivals)
    displayed: tuple[Alert, ...] = algorithm.output
    report = evaluate_run(condition, host.received(), displayed)
    return FeedResult(
        runtime=f"sharded-rebalance[{config.shards}->{new_config.shards}]",
        displayed=displayed,
        verdicts=report.summary,
        counters={
            "shard/handoff/ring": handoffs,
            "shard/stale/guard": sum(host.stale_dropped),
        },
    )
