"""Multi-tenant scale-out: many conditions, partitioned by the ring.

The conformance harness replays *one* recorded condition at a time; the
north-star workload is millions of users' conditions monitored at once.
This module provides that population: deterministic synthetic tenants
(one cheap condition each — non-historical threshold, aggressive delta,
or conservative consecutive-delta, cycling), partitioned over a
:class:`~repro.sharding.ring.ShardConfig` by each tenant's variable, and
executed shard by shard through the same semantic core as everything
else — :class:`~repro.core.evaluator.ConditionEvaluator` per CE replica,
an online AD filter fed in raise order, canonical alert rendering.  A
tenant runs on identity keys: each replica's ``step`` returns the key,
the AD's ``decide`` takes it, and a displayed key is rendered from the
replica's windows, so no :class:`~repro.core.alert.Alert` is built.

Each tenant is a pure function of ``(tenant_index, seed)``, so a shard's
batch can be generated *inside* the worker that executes it — nothing
but index lists crosses process boundaries, which is what lets the
benchmark sweep 10⁵–10⁶ conditions.  Per-tenant output digests fold into
an order-independent XOR aggregate, which a sweep compares across shard
counts (and process layouts) together with the tenant count and the
summed counters (:attr:`ShardBatchResult.digest` says why).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

from repro.accel import collector_paused
from repro.core.condition import ExpressionCondition
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.serialization import canonical_line
from repro.core.update import Update
from repro.displayers.registry import make_ad
# Nothing here calls these two; they stay bound because the traced
# benchmark harness patches ``repro.sharding.tenants.merge_stamped`` and
# ``repro.sharding.tenants.alert_canonical_line``.
from repro.core.serialization import alert_canonical_line  # noqa: F401
from repro.service.runtime import merge_stamped  # noqa: F401
from repro.sharding.ring import HashRing, ShardConfig
from repro.workloads.generators import zipf_counts

__all__ = [
    "tenant_variable",
    "make_tenant_condition",
    "partition_tenants",
    "zipfian_update_counts",
    "run_tenant",
    "run_shard",
    "ShardBatchResult",
]

_new = object.__new__
_oset = object.__setattr__

#: Per-tenant AD algorithms, cycled by tenant index (single-variable,
#: cheap online filters).
_ALGORITHMS = ("AD-1", "AD-2", "AD-3")


def tenant_variable(index: int) -> str:
    """The real-world variable tenant ``index`` monitors (ring key)."""
    return f"tenant{index:07d}.x"


def make_tenant_condition(index: int) -> ExpressionCondition:
    """Tenant ``index``'s condition — kind cycles with the index."""
    var = tenant_variable(index)
    kind = index % 3
    if kind == 0:
        # Non-historical threshold (the paper's c1 shape).
        return ExpressionCondition(
            f"t{index}", H[var][0].value > 3000.0, conservative=False
        )
    delta = H[var][0].value - H[var][-1].value > 150.0
    if kind == 1:
        # Historical, aggressive (c2 shape).
        return ExpressionCondition(f"t{index}", delta, conservative=False)
    # Historical, conservative (c3 shape).
    return ExpressionCondition(
        f"t{index}",
        delta & (H[var][0].seqno == H[var][-1].seqno + 1),
        conservative=True,
    )


def partition_tenants(
    count: int, config: ShardConfig
) -> list[list[int]]:
    """Tenant indices per shard, assigned by the ring over their variables."""
    _check_at_least("count", count, 0)
    ring = HashRing(config)
    shards: list[list[int]] = [[] for _ in range(config.shards)]
    for index in range(count):
        shards[ring.shard_for(tenant_variable(index))].append(index)
    return shards


def zipfian_update_counts(
    count: int,
    total_updates: int,
    seed: int,
    exponent: float = 1.2,
) -> list[int]:
    """Per-tenant update counts under Zipf popularity (head-heavy).

    Real tenant populations are skewed: a few hot tenants produce most
    of the traffic, the long tail barely updates.  The counts are a pure
    function of ``(count, total_updates, seed, exponent)`` — independent
    of any shard layout — so a population generated this way produces
    identical per-tenant outputs at every shard count, which the
    cross-shard conformance suite asserts over the XOR'd digests.
    """
    _check_at_least("count", count, 0)
    _check_at_least("total_updates", total_updates, 0)
    return zipf_counts(Random(f"zipf/{seed}"), total_updates, count, exponent)


def _tenant_stream(index: int, seed: int, n_updates: int) -> list[Update]:
    """Tenant ``index``'s DM broadcast: a random walk around the threshold.

    The updates are valid by construction (a non-empty name, seqnos from
    1), so they skip ``Update.__init__`` and its validation, as the array
    kernel's do; each step is ``rng.uniform(-120.0, 140.0)`` written out,
    the same floats.
    """
    rng = Random(f"tenant/{seed}/{index}")
    random = rng.random
    var = tenant_variable(index)
    value = 2900.0 + rng.uniform(-100.0, 100.0)
    stream = []
    for seqno in range(1, n_updates + 1):
        value += -120.0 + 260.0 * random()
        update = _new(Update)
        _oset(update, "varname", var)
        _oset(update, "seqno", seqno)
        _oset(update, "value", round(value, 3))
        stream.append(update)
    return stream


@dataclass(frozen=True)
class TenantResult:
    tenant: int
    updates: int
    alerts: int
    displayed: int
    #: sha256 over the displayed canonical alert lines (the same
    #: rendering the conformance harness diffs).
    digest: str


def run_tenant(
    index: int,
    seed: int,
    n_updates: int = 12,
    replication: int = 2,
) -> TenantResult:
    """Monitor one tenant end to end (CE replicas → online AD filter).

    Replica disagreement is real: each non-primary CE independently
    loses ~20% of the front-link deliveries, so the AD filter has actual
    duplicate/ordering work to do.  The AD decides each alert's identity
    key as its CE's step raises it — position-major, replica-minor — and
    a displayed key is rendered on the spot: no ``Alert`` is built.
    """
    _check_at_least("replication", replication, 1)
    _check_at_least("n_updates", n_updates, 0)
    random = Random(f"loss/{seed}/{index}").random
    condition = make_tenant_condition(index)
    stream = _tenant_stream(index, seed, n_updates)
    primary, *peers = [
        ConditionEvaluator(condition, source=f"CE{i + 1}")
        for i in range(replication)
    ]
    decide = make_ad(_ALGORITHMS[index % len(_ALGORITHMS)], condition).decide
    render = canonical_line
    lines: list[str] = []
    lost = raised = 0
    # CE1 never draws a loss: testing for it on every CE step cost ≈4%
    # of a tenant-batch pass (EXPERIMENTS.md), so it is stepped first.
    for update in stream:
        key = primary.step(update)
        if key is not None:
            raised += 1
            if decide(key):
                lines.append(render(key[0], primary.source, primary.windows()))
        for peer in peers:
            if random() < 0.2:
                lost += 1  # front-link loss on this replica
                continue
            key = peer.step(update)
            if key is not None:
                raised += 1
                if decide(key):
                    lines.append(render(key[0], peer.source, peer.windows()))
    return TenantResult(
        tenant=index,
        updates=len(stream) * replication - lost,
        alerts=raised,
        displayed=len(lines),
        digest=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    )


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class ShardBatchResult:
    """One shard's whole batch, with the order-independent aggregate."""

    shard: int
    tenants: int
    updates: int
    alerts: int
    displayed: int
    #: XOR of the per-tenant digests, so shard layout and process order
    #: do not change it.  It is not a proof of equal outputs on its own:
    #: equal digests cancel in pairs, and every tenant that displays
    #: nothing has the same one (sha256 of no lines), so conformance
    #: compares the tenant count and the summed counters beside it.
    digest: str

    @staticmethod
    def combine_digests(digests: "list[str]") -> str:
        acc = 0
        for digest in digests:
            acc ^= int(digest, 16)
        return f"{acc:064x}"


def run_shard(
    shard: int,
    tenant_indices: "list[int]",
    seed: int,
    n_updates: int = 12,
    replication: int = 2,
    update_counts: "dict[int, int] | None" = None,
) -> ShardBatchResult:
    """Execute one shard's tenant batch (generation included — a real
    shard owns its tenants' whole lifecycle).

    ``update_counts`` optionally overrides the per-tenant update volume
    (tenant index → count) — how Zipf-skewed populations from
    :func:`zipfian_update_counts` reach the workers; tenants outside the
    mapping fall back to the uniform ``n_updates``.  A tenant index may
    appear only once: a repeated one would run twice and its two equal
    digests would cancel out of the aggregate.
    """
    _check_at_least("replication", replication, 1)
    _check_at_least("n_updates", n_updates, 0)
    counts = update_counts or {}
    for index, count in counts.items():
        if count < 0:
            raise ValueError(
                f"update_counts[{index!r}] must be >= 0, got {count!r}"
            )
    seen: set[int] = set()
    for index in tenant_indices:
        if index in seen:
            raise ValueError(f"tenant index {index!r} repeats in the batch")
        seen.add(index)
    updates = alerts = displayed = 0
    digests: list[str] = []
    # A tenant's payload graph is acyclic and dies when its digest is
    # out; the hot head alone holds ~1.3*10^5 tracked objects (its
    # updates and its AD's displayed keys) until then.
    with collector_paused():
        for index in tenant_indices:
            result = run_tenant(
                index, seed, counts.get(index, n_updates), replication
            )
            updates += result.updates
            alerts += result.alerts
            displayed += result.displayed
            digests.append(result.digest)
    return ShardBatchResult(
        shard=shard,
        tenants=len(tenant_indices),
        updates=updates,
        alerts=alerts,
        displayed=displayed,
        digest=ShardBatchResult.combine_digests(digests),
    )
