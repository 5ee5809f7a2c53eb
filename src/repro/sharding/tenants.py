"""Multi-tenant scale-out: many conditions, partitioned by the ring.

The conformance harness replays *one* recorded condition at a time; the
north-star workload is millions of users' conditions monitored at once.
This module provides that population: deterministic synthetic tenants
(one cheap condition each — non-historical threshold, aggressive delta,
or conservative consecutive-delta, cycling), partitioned over a
:class:`~repro.sharding.ring.ShardConfig` by each tenant's variable, and
executed shard by shard through the same semantic core as everything
else — :class:`~repro.core.evaluator.ConditionEvaluator` per CE replica,
an online AD filter fed in raise order, canonical alert rendering.

Each tenant is a pure function of ``(tenant_index, seed)``, so a shard's
batch can be generated *inside* the worker that executes it — nothing
but index lists crosses process boundaries, which is what lets the
benchmark sweep 10⁵–10⁶ conditions.  Per-tenant output digests fold into
an order-independent XOR aggregate, so a sweep can assert that every
shard count (and any process layout) produced identical results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random

from repro.accel import collector_paused
from repro.core.condition import ExpressionCondition
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.serialization import alert_canonical_line
from repro.core.update import Update
from repro.displayers.registry import make_ad
# Nothing here calls it; it stays bound because the traced benchmark
# harness patches ``repro.sharding.tenants.merge_stamped``.
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
    duplicate/ordering work to do.  The AD takes each alert as its CE
    raises it — position-major, replica-minor — and the displayed ones
    are rendered on the spot.
    """
    _check_replication(replication)
    random = Random(f"loss/{seed}/{index}").random
    condition = make_tenant_condition(index)
    stream = _tenant_stream(index, seed, n_updates)
    primary, *peers = [
        ConditionEvaluator(condition, source=f"CE{i + 1}").ingest
        for i in range(replication)
    ]
    offer = make_ad(_ALGORITHMS[index % len(_ALGORITHMS)], condition).offer
    render = alert_canonical_line
    lines: list[str] = []
    lost = raised = 0
    # CE1 never draws a loss, so it is stepped ahead of the replica loop
    # rather than tested for on every CE step; that per-step test cost
    # ≈4% of a tenant-batch pass (EXPERIMENTS.md).
    for update in stream:
        alert = primary(update)
        if alert is not None:
            raised += 1
            if offer(alert):
                lines.append(render(alert))
        for ingest in peers:
            if random() < 0.2:
                lost += 1  # front-link loss on this replica
                continue
            alert = ingest(update)
            if alert is not None:
                raised += 1
                if offer(alert):
                    lines.append(render(alert))
    return TenantResult(
        tenant=index,
        updates=len(stream) * replication - lost,
        alerts=raised,
        displayed=len(lines),
        digest=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    )


def _check_replication(replication: int) -> None:
    if replication < 1:
        raise ValueError(f"replication must be >= 1, got {replication!r}")


@dataclass(frozen=True)
class ShardBatchResult:
    """One shard's whole batch, with the order-independent aggregate."""

    shard: int
    tenants: int
    updates: int
    alerts: int
    displayed: int
    #: XOR of the per-tenant digests — equal aggregates ⇔ equal
    #: per-tenant outputs, regardless of shard layout or process order.
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
    mapping fall back to the uniform ``n_updates``.
    """
    _check_replication(replication)
    updates = alerts = displayed = 0
    digests: list[str] = []
    counts = update_counts or {}
    # A tenant's payload graph is acyclic and dies when its digest is
    # out; the hot head alone holds ~10^5 tracked objects until then.
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
