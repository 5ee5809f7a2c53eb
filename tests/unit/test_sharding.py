"""Unit tests for the sharding subsystem: the ring and the tenant path.

The property and integration suites own the statistical invariants and
the tenant-population conformance; this file pins the concrete
contracts — config validation and clamping, deterministic placement,
the benchmark harness's bindings, and the conformance report's
divergence locator (which must name the first diverging alert, not
just digests).
"""

import gc
import weakref

import pytest

from repro.engine.spec import TrialSpec
from repro.props import report
from repro.service.feed import record_feed
from repro.service.runtime import ConformanceReport, DirectRuntime
from repro.sharding import HashRing, ShardConfig, ring, tenants
from repro.sharding.tenants import run_shard, zipfian_update_counts
from tests.conftest import Knot, collections_until_last_return


class TestShardConfig:
    def test_defaults_are_the_degenerate_ring(self):
        config = ShardConfig()
        assert config.shards == 1
        assert config.is_single

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shards": -2},
            {"shards": 2.5},
            {"shards": float("nan")},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)

    def test_with_value_clamps_by_kind(self):
        config = ShardConfig(shards=4)
        assert config.with_value("shards", -3).shards == 1
        assert config.with_value("shards", 0.9).shards == 1
        assert config.with_value("shards", 8).shards == 8

    def test_shard_count_change_keeps_ring_shape(self):
        resized = ShardConfig(shards=2).with_value("shards", 5)
        assert resized == ShardConfig(shards=5)
        # Every shard keeps its fixed number of ring points.
        assert len(HashRing(resized)._positions) == 5 * ring.POINTS_PER_SHARD

    def test_field_metadata_covers_every_knob(self):
        assert [name for name, _ in ShardConfig.knobs()] == ["shards"]
        for name, _ in ShardConfig.knobs():
            assert getattr(ShardConfig(), name) == ShardConfig.inert(name)


class TestHashRing:
    def test_single_shard_owns_everything(self):
        ring = HashRing(ShardConfig())
        assert {ring.shard_for(key) for key in ("a", "b", "c")} == {0}

    def test_assignment_is_stable_across_builds(self):
        config = ShardConfig(shards=5)
        population = [f"v{i}" for i in range(100)]
        first, second = HashRing(config), HashRing(config)
        assert [first.shard_for(key) for key in population] == [
            second.shard_for(key) for key in population
        ]

    def test_reseeding_redices_ownership(self, monkeypatch):
        population = [f"v{i}" for i in range(200)]
        before = [HashRing(ShardConfig(shards=4)).shard_for(k) for k in population]
        monkeypatch.setattr(ring, "RING_SALT", 1)
        after = [HashRing(ShardConfig(shards=4)).shard_for(k) for k in population]
        assert before != after  # 200 keys all landing identically is ~impossible


class TestCollectorScope:
    """``run_shard`` and ``DirectRuntime.execute`` hold their payload
    graph with the cyclic collector paused (DESIGN.md, Collector policy)."""

    TENANTS = 300

    def run_population(self):
        counts = dict(enumerate(zipfian_update_counts(self.TENANTS, 6_000, seed=7)))
        return run_shard(0, list(range(self.TENANTS)), 7, update_counts=counts)

    def test_no_collection_starts_inside_run_shard(self, collector_restored):
        gc.enable()
        with collections_until_last_return(tenants, "run_tenant") as started:
            result = self.run_population()
        assert result.tenants == self.TENANTS and result.alerts > 0
        assert started == []
        assert gc.isenabled()

    def test_no_collection_starts_inside_direct_execute(self, collector_restored):
        feed = record_feed(TrialSpec("single", "aggressive", "AD-3", 7, 1_000))
        gc.enable()
        with collections_until_last_return(report, "evaluate_run") as started:
            result = DirectRuntime().execute(feed)
        assert len(result.displayed) > 100
        assert started == []
        assert gc.isenabled()

    @pytest.mark.parametrize("before", [True, False])
    def test_a_cycle_built_inside_is_reclaimed_after(
        self, before, monkeypatch, collector_restored
    ):
        knots = []
        run_tenant = tenants.run_tenant

        def knotted(*args, **kwargs):
            knots.append(weakref.ref(Knot()))
            return run_tenant(*args, **kwargs)

        monkeypatch.setattr(tenants, "run_tenant", knotted)
        (gc.enable if before else gc.disable)()
        self.run_population()
        # The scope hands back the collector it was given ...
        assert gc.isenabled() is before
        assert len(knots) == self.TENANTS
        # ... and nothing it deferred is out of an ordinary collection's reach.
        gc.collect(0)
        assert all(knot() is None for knot in knots)


class TestShardBatchInputs:
    """What ``run_shard``'s XOR aggregate can and cannot tell apart, and
    the inputs it therefore refuses."""

    def test_a_repeated_tenant_index_is_refused_before_anything_runs(
        self, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(tenants, "run_tenant", lambda *a: ran.append(a))
        with pytest.raises(ValueError, match="tenant index 1 repeats"):
            run_shard(0, [2, 1, 1], 7)
        assert ran == []

    def test_tenants_that_display_nothing_cancel_in_pairs(self):
        # Tenant 1 gets no update, tenant 2 displays nothing from its 12:
        # both digest sha256(b"") and fold to zero, as no tenant at all
        # does -- only the counters beside the digest tell them apart.
        nothing = run_shard(0, [], 7)
        pair = run_shard(0, [1, 2], 7, update_counts={1: 0})
        assert pair.digest == nothing.digest == "0" * 64
        assert pair.displayed == 0
        assert (pair.tenants, pair.updates) != (nothing.tenants, nothing.updates)

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(lambda: zipfian_update_counts(3, -5, 7),
                         "total_updates", id="zipf-total"),
            pytest.param(lambda: zipfian_update_counts(-3, 5, 7),
                         "count", id="zipf-count"),
            pytest.param(lambda: tenants.run_tenant(1, 7, -4),
                         "n_updates", id="run_tenant"),
            pytest.param(lambda: run_shard(0, [1], 7, n_updates=-4),
                         "n_updates", id="run_shard-uniform"),
            pytest.param(lambda: run_shard(0, [1], 7, update_counts={1: -3}),
                         r"update_counts\[1\]", id="run_shard-counts"),
            pytest.param(lambda: tenants.partition_tenants(-3, ShardConfig(2)),
                         "count", id="partition"),
        ],
    )
    def test_a_negative_volume_is_refused_by_name(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            call()


class TestPerfHarnessBinding:
    """The repo benchmark (``benchmarks/perf/``) binds ``repro`` names:
    each traced run patches its layers by attribute, unused imports
    included, and chaos-churn-grid re-runs a sample on the object
    kernel.  Deleting or renaming a bound name fails here."""

    def test_tenant_batch_installs_counts_and_unpatches(self):
        from benchmarks.perf.spans import Tracer
        from benchmarks.perf.tenants import TenantBatch

        names = ("run_shard", "run_tenant", "make_tenant_condition",
                 "_tenant_stream", "merge_stamped", "make_ad",
                 "alert_canonical_line")
        before = {name: getattr(tenants, name) for name in names}
        tracer = Tracer()
        try:
            TenantBatch(ctx=None).install(tracer)
            result = tenants.run_shard(0, [0, 1], 7, n_updates=40)
        finally:
            tracer.unpatch()
        assert {name: getattr(tenants, name) for name in names} == before
        assert tracer.calls("sharding.tenants.run_tenant") == 2
        # The tenant path steps, decides and renders on identity keys:
        # the object API the harness times is never entered.
        assert tracer.calls("core.evaluator.ingest") == 0
        assert tracer.calls("displayers.offer") == 0
        assert tracer.calls("core.serialization.render") == 0
        assert result.alerts > 0
        # The tenant path raises alerts straight into the AD: no merge.
        assert tracer.calls("service.runtime.merge_stamped") == 0


    def test_trial_grids_install_count_and_unpatch(self):
        from benchmarks.perf.spans import Tracer
        from benchmarks.perf.trials import _Grid
        from repro.faults.plan import DEFAULT_CHURN_PROFILE
        from repro.membership.config import MembershipConfig

        grid = _Grid(ctx=None)
        grid.deliveries = 0
        tracer = Tracer()
        try:
            grid.install(tracer)
            patched = list(tracer._patches)
            spec = TrialSpec(
                "multi", "aggressive", "AD-5", 3, 6, replication=2,
                faults=DEFAULT_CHURN_PROFILE.scaled(2.0),
                membership=MembershipConfig(), collect_quality=True,
            )
            spec.execute()
        finally:
            tracer.unpatch()
        assert all(getattr(owner, attr) is original
                   for owner, attr, original in patched)
        for layer in ("engine.trial", "workloads.make_workload",
                      "faults.materialize", "membership.plan",
                      "simulation.run_system", "props.report.evaluate_run",
                      "props.orderedness", "quality.alert_quality"):
            assert tracer.calls(layer) >= 1, layer
        assert grid.deliveries > 0

    def test_service_direct_patch_list_resolves(self):
        from benchmarks.perf.service import ServiceStream

        stream = ServiceStream.__new__(ServiceStream)
        stream.feed = record_feed(TrialSpec("single", "aggressive", "AD-3", 7, 40))
        stream.reference_bytes = DirectRuntime().execute(stream.feed).displayed_bytes()
        tracer, _bare, _traced, displayed = stream._traced_direct()
        assert displayed > 0
        assert tracer.calls("displayers.offer") == stream.feed.total_alerts
        assert tracer.calls("service.runtime.merge_stamped") == 1

    def test_chaos_churn_grid_verifies_on_the_object_kernel(self):
        from types import SimpleNamespace

        from benchmarks.perf.trials import ChaosChurnGrid

        notes = []
        ctx = SimpleNamespace(
            seed=7, note=notes.append,
            sizes=SimpleNamespace(chaos_blocks=1, chaos_specs=2, chaos_updates=12),
        )
        grid = ChaosChurnGrid(ctx)
        specs = grid.plan_block(0)
        grid.sampled = [(specs[0], specs[0].execute())]
        grid.verify()
        assert grid.failed_ops == 0
        assert notes == ["object-kernel sample 1 specs, 0 mismatches"]


class TestConformanceDivergence:
    def make_results(self, *specs):
        return [
            DirectRuntime().execute(record_feed(spec)) for spec in specs
        ]

    def test_conformant_report_has_no_divergence(self):
        spec = TrialSpec("single", "aggressive", "AD-2", 3, 12)
        a, b = self.make_results(spec, spec)
        report = ConformanceReport(results=(a, b))
        assert report.identical
        assert report.first_divergence() is None
        assert "conformant" in report.explain()

    def test_divergence_names_first_alert_and_source(self):
        from dataclasses import replace

        spec = TrialSpec("single", "aggressive", "AD-2", 3, 12)
        (a,) = self.make_results(spec)
        assert a.displayed  # the seed was chosen to display alerts
        b = replace(a, runtime="other", displayed=a.displayed[1:])
        report = ConformanceReport(results=(a, b))
        assert not report.identical
        divergence = report.first_divergence()
        assert divergence["runtime"] == "other"
        assert divergence["reference"] == "direct"
        # The streams share no offset, so they part ways at alert 0 —
        # and the message must say so rather than only hashing.
        assert divergence["alert_index"] == 0
        assert divergence["source"] == a.displayed[0].source
        explained = report.explain()
        assert "alert index 0" in explained
        assert divergence["source"] in explained
        assert report.summary()["divergence"] == divergence

    def test_verdict_only_divergence_is_reported(self):
        from dataclasses import replace

        spec = TrialSpec("single", "aggressive", "AD-2", 3, 12)
        (a,) = self.make_results(spec)
        b = replace(
            a, runtime="other", verdicts={**a.verdicts, "ordered": False}
        )
        report = ConformanceReport(results=(a, b))
        assert not report.identical
        divergence = report.first_divergence()
        assert divergence["alert_index"] is None
        assert "verdicts differ" in report.explain()
