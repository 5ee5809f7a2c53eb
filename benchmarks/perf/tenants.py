"""``tenant-batch``: a Zipf-skewed tenant population over four shards.

Construction-dominated use of the semantic core: every pass builds one
condition, two evaluators and one AD per tenant, ~18% of tenants never
receive an update, and the head tenant alone carries a fifth of the
traffic.  No sockets, queues, scheduler or checkers.  The four shards run
serially in this process — sharding is measured as routing + skew, not as
wall-clock scaling, which one process cannot show.
"""

from __future__ import annotations

import resource
import time

from benchmarks.perf.harness import Ctx, Sample, report_trace
from benchmarks.perf.spans import Tracer

__all__ = ["TenantBatch"]

SHARDS = 4


class TenantBatch:
    name = "tenant-batch"
    rss_who = resource.RUSAGE_SELF

    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx
        self.ops = 0
        self.failed_ops = 0
        #: ``(start, end, ingested updates)`` per timed pass.
        self.passes: list[tuple[float, float, int]] = []

    def setup(self) -> None:
        from repro.sharding.ring import ShardConfig
        from repro.sharding.tenants import partition_tenants, zipfian_update_counts

        sizes = self.ctx.sizes
        start = time.perf_counter()
        counts = zipfian_update_counts(sizes.tenants, sizes.tenant_updates, self.ctx.seed)
        self.zipf_interval = (start, time.perf_counter())
        self.counts = dict(enumerate(counts))
        start = time.perf_counter()
        self.shards = partition_tenants(sizes.tenants, ShardConfig(shards=SHARDS))
        self.partition_interval = (start, time.perf_counter())

    def warm(self) -> None:
        """The one-shard run is both the warm-up and the reference."""
        from repro.sharding.tenants import run_shard

        everyone = list(range(self.ctx.sizes.tenants))
        reference = run_shard(0, everyone, self.ctx.seed, update_counts=self.counts)
        self.reference_digest = reference.digest
        self.ctx.note(f"one-shard digest {reference.digest} "
                      f"({reference.tenants} tenants, {reference.updates} updates "
                      f"ingested, {reference.alerts} alerts, {reference.displayed} displayed)")

    def run_pass(self) -> tuple[float, float, list]:
        from repro.sharding.tenants import run_shard

        start = time.perf_counter()
        results = [
            run_shard(shard, tenants, self.ctx.seed, update_counts=self.counts)
            for shard, tenants in enumerate(self.shards)
        ]
        return start, time.perf_counter(), results

    def check(self, results: list) -> bool:
        from repro.sharding.tenants import ShardBatchResult

        combined = ShardBatchResult.combine_digests([r.digest for r in results])
        return combined == self.reference_digest

    def record(self, results: list) -> None:
        tenants = sum(r.tenants for r in results)
        self.ops += tenants
        if not self.check(results):
            self.failed_ops += tenants

    def measure(self) -> None:
        while not self.ctx.expired() or len(self.passes) < self.ctx.sizes.min_passes:
            start, end, results = self.run_pass()
            self.passes.append((start, end, sum(r.updates for r in results)))
            self.record(results)

    def verify(self) -> None:
        pass

    def close(self) -> None:
        pass

    def end_to_end(self) -> dict[str, Sample]:
        speed = self.ctx.speed
        tenants = self.ctx.sizes.tenants
        seconds = [speed.effective(a, b) for a, b, _ in self.passes]
        self.ctx.note("pass raw_s " + " ".join(f"{b - a:.4f}" for a, b, _ in self.passes))
        self.ctx.note("pass eff_s " + " ".join(f"{s:.4f}" for s in seconds))
        rate = Sample.of(u / s for (_, _, u), s in zip(self.passes, seconds))
        self.ctx.note(f"harness.pass_spread_pct {rate.spread_pct():.2f}")
        return {
            "updates_per_s": rate,
            # One tenant is this workload's trial; see trials.py for why a
            # batch's latency and drain are derived from the pass time.
            "trials_per_s": Sample.of(tenants / s for s in seconds),
            "latency_p50_ms": Sample.of(1e3 * s / tenants for s in seconds),
            "drain_s": Sample.of(seconds),
        }

    # -- the traced run ------------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        import repro.sharding.tenants as tenants
        from repro.core.evaluator import ConditionEvaluator
        from repro.displayers.base import ADAlgorithm

        tracer.patch(tenants, "run_shard", "sharding.tenants.run_shard", coarse=True)
        tracer.patch(tenants, "run_tenant", "sharding.tenants.run_tenant")
        tracer.patch(tenants, "make_tenant_condition", "sharding.tenants.make_condition")
        tracer.patch(tenants, "_tenant_stream", "sharding.tenants.tenant_stream")
        tracer.patch(ConditionEvaluator, "__init__", "core.evaluator.construct")
        tracer.patch(ConditionEvaluator, "ingest", "core.evaluator.ingest")
        tracer.patch(tenants, "merge_stamped", "service.runtime.merge_stamped")
        tracer.patch(tenants, "make_ad", "displayers.make_ad")
        tracer.patch(ADAlgorithm, "offer", "displayers.offer")
        tracer.patch(tenants, "alert_canonical_line", "core.serialization.render")

    def trace(self) -> None:
        untraced = [self.run_pass() for _ in range(self.ctx.sizes.trace_blocks)]
        for _, _, results in untraced:
            self.record(results)
        tracer = Tracer()
        self.install(tracer)
        try:
            with tracer.span("tenant-batch.pass"):
                # run_pass imports run_shard when called: it gets the wrapper.
                start, end, results = self.run_pass()
        finally:
            tracer.unpatch()
        self.record(results)
        self.traced = (tracer, [(a, b) for a, b, _ in untraced], (start, end), results)

    def per_layer(self) -> dict[str, float]:
        tracer, untraced, (start, end), results = self.traced
        speed = self.ctx.speed
        factor = speed.factor(start, end)
        layers: dict[str, float] = {}
        for name in (
            "core.evaluator.ingest", "core.evaluator.construct",
            "service.runtime.merge_stamped", "displayers.make_ad",
            "displayers.offer", "core.serialization.render",
            "sharding.tenants.make_condition",
        ):
            layers[f"{name}_s"] = tracer.busy(name) * factor
            layers[f"{name}_n"] = tracer.calls(name)
        alerts = sum(r.alerts for r in results)
        displayed = sum(r.displayed for r in results)
        layers["core.evaluator.alerts_n"] = alerts
        layers["displayers.display_ratio"] = displayed / alerts if alerts else 0.0
        layers["sharding.ring.partition_s"] = speed.effective(*self.partition_interval)
        layers["workloads.zipf_counts_s"] = speed.effective(*self.zipf_interval)
        sizes = [len(members) for members in self.shards]
        layers["sharding.ring.skew"] = max(sizes) / (sum(sizes) / len(sizes))
        shard_seconds = [
            s["end"] - s["start"] for s in tracer.spans
            if s["name"] == "sharding.tenants.run_shard"
        ]
        # Critical-path accounting, not wall-clock scaling: what four
        # workers *could* gain if the slowest shard were the only wait.
        layers["sharding.critical_path_ratio"] = sum(shard_seconds) / max(shard_seconds)
        base = [speed.effective(a, b) for a, b in untraced]
        layers["harness.trace_overhead_ratio"] = (
            speed.effective(start, end) / Sample.of(base).median
        )
        layers["harness.pass_spread_pct"] = Sample.of(base).spread_pct()
        layers["harness.passes_n"] = len(base)
        report_trace(self.ctx, tracer, "tenant-batch.pass", "tenant", self.ctx.sizes.tenants)
        return layers
