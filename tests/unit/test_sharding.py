"""Unit tests for the sharding subsystem: ring, placement, handoff, runtime.

The property and integration suites own the statistical invariants and
the cross-runtime conformance matrix; this file pins the concrete
contracts — config validation and clamping, deterministic placement,
the handoff's JSON round trip and stale guard, the rebalancing
runtime's bookkeeping, and the conformance report's divergence locator
(which must name the first diverging alert, not just digests).
"""

import dataclasses
import gc
import weakref

import pytest

from repro.core.condition import c1, cm
from repro.core.update import Update
from repro.engine.spec import TrialSpec
from repro.props import report
from repro.service.feed import record_feed
from repro.service.runtime import ConformanceReport, DirectRuntime
from repro.sharding import (
    HashRing,
    ShardConfig,
    ShardHost,
    ShardState,
    assign_condition,
    execute_rebalanced,
    moved_keys,
    tenants,
)
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
            {"virtual_nodes": 0},
            {"ring_seed": -1},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)

    def test_with_value_clamps_by_kind(self):
        config = ShardConfig(shards=4)
        assert config.with_value("shards", -3).shards == 1
        assert config.with_value("virtual_nodes", 0.9).virtual_nodes == 1
        assert config.with_value("ring_seed", -7).ring_seed == 0
        assert config.with_value("shards", 8).shards == 8

    def test_shard_count_change_keeps_ring_shape(self):
        config = ShardConfig(shards=2, virtual_nodes=16, ring_seed=3)
        resized = config.with_value("shards", 5)
        assert resized.shards == 5
        assert resized.virtual_nodes == 16
        assert resized.ring_seed == 3

    def test_field_metadata_covers_every_knob(self):
        assert [name for name, _ in ShardConfig.knobs()] == [
            "shards", "virtual_nodes", "ring_seed",
        ]
        for name, _ in ShardConfig.knobs():
            assert getattr(ShardConfig(), name) == ShardConfig.inert(name)


class TestHashRing:
    def test_single_shard_owns_everything(self):
        ring = HashRing(ShardConfig())
        assert ring.shard_for("x") == 0
        assert ring.loads(["a", "b", "c"]) == [3]

    def test_assignment_is_stable_across_builds(self):
        config = ShardConfig(shards=5, virtual_nodes=32, ring_seed=2)
        population = [f"v{i}" for i in range(100)]
        assert HashRing(config).assignment(population) == HashRing(
            config
        ).assignment(population)

    def test_reseeding_redices_ownership(self):
        population = [f"v{i}" for i in range(200)]
        a = HashRing(ShardConfig(shards=4)).assignment(population)
        b = HashRing(ShardConfig(shards=4, ring_seed=1)).assignment(population)
        assert a != b  # 200 keys all landing identically is ~impossible

    def test_moved_keys_reports_ownership_changes_only(self):
        before = {"a": 0, "b": 1, "c": 1}
        after = {"a": 0, "b": 2, "c": 1}
        assert moved_keys(before, after) == {"b": (1, 2)}


class TestRouter:
    def test_primary_is_lexicographically_smallest_variable(self):
        assignment = assign_condition(cm(), ShardConfig(shards=6))
        assert assignment.primary == "x"

    def test_multi_variable_routes_pull_to_home(self):
        # y lives on shard 5 of this ring, yet cm is placed by x alone.
        config = ShardConfig(shards=8)
        ring = HashRing(config)
        assert ring.shard_for("y") != ring.shard_for("x")
        assert assign_condition(cm(), config).home == ring.shard_for("x")

    def test_home_is_ring_owner_of_primary(self):
        config = ShardConfig(shards=7, ring_seed=3)
        assignment = assign_condition(c1(), config)
        assert assignment.home == HashRing(config).shard_for("x")


def _threshold_updates(seqnos):
    # c1 defaults to "x > 3000": odd seqnos trigger, even seqnos do not.
    return [
        Update("x", seqno, 3600.0 if seqno % 2 else 100.0)
        for seqno in seqnos
    ]


class TestHandoff:
    def make_host(self):
        host = ShardHost(shard=1, condition=c1(), replication=2)
        for update in _threshold_updates([1, 2, 3]):
            host.ingest(0, update)
        for update in _threshold_updates([1, 3]):
            host.ingest(1, update)
        return host

    def test_export_state_json_round_trip(self):
        state = self.make_host().export_state()
        restored = ShardState.from_json_obj(state.to_json_obj())
        assert restored == state
        assert restored.emitted == (2, 2)
        assert restored.high_water == ({"x": 3}, {"x": 3})

    def test_restore_replays_to_identical_alerts(self):
        host = self.make_host()
        state = ShardState.from_json_obj(host.export_state().to_json_obj())
        restored = ShardHost.restore(5, c1(), state)
        assert restored.shard == 5
        assert restored.per_ce_alerts() == host.per_ce_alerts()
        assert restored.received() == host.received()

    def test_restore_rejects_tampered_state(self):
        state = self.make_host().export_state()
        tampered = ShardState(
            shard=state.shard,
            logs=state.logs,
            high_water=state.high_water,
            emitted=(5, 5),  # claims alerts the log cannot regenerate
        )
        with pytest.raises(ValueError, match="does not reproduce"):
            ShardHost.restore(2, c1(), tampered)

    def test_stale_guard_drops_reforwarded_duplicates(self):
        host = self.make_host()
        state = ShardState.from_json_obj(host.export_state().to_json_obj())
        restored = ShardHost.restore(2, c1(), state)
        # An in-flight delivery re-forwarded after the handoff: already
        # covered by the high-water vector, must not double-ingest.
        assert restored.ingest(0, _threshold_updates([3])[0]) is None
        assert restored.stale_dropped == [1, 0]
        assert restored.per_ce_alerts() == host.per_ce_alerts()
        # Genuinely new deliveries still evaluate.
        alert = restored.ingest(0, _threshold_updates([5])[0])
        assert alert is not None

    def test_guard_ignores_unreferenced_variables(self):
        host = ShardHost(shard=0, condition=c1(), replication=1)
        host.ingest(0, Update("other", 1, 9999.0))
        assert host.export_state().high_water == ({},)


class TestRebalanceBookkeeping:
    """``execute_rebalanced`` across a resize that moves ``x``'s home."""

    OLD, NEW = ShardConfig(shards=2), ShardConfig(shards=8)

    def test_counters_account_for_every_delivery(self):
        feed = record_feed(TrialSpec("single", "aggressive", "AD-2", 3, 12))
        cut = len(feed.deliveries) // 2
        # A delivery still in flight to the old home, re-forwarded after
        # the handoff.
        replayed = dataclasses.replace(feed, deliveries=(
            *feed.deliveries[:cut + 1], feed.deliveries[0],
            *feed.deliveries[cut + 1:],
        ))
        result = execute_rebalanced(replayed, self.OLD, cut, self.NEW)
        assert result.counters == {"shard/handoff/ring": 1, "shard/stale/guard": 1}
        assert result.digest() == DirectRuntime().execute(feed).digest()

    def test_runtime_name_exposes_layout(self):
        feed = record_feed(TrialSpec("single", "aggressive", "AD-2", 3, 12))
        result = execute_rebalanced(feed, self.OLD, 0, self.NEW)
        assert result.runtime == "sharded-rebalance[2->8]"


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


class TestPerfHarnessBinding:
    """``benchmarks/perf/tenants.py`` patches its layers on
    ``repro.sharding.tenants`` by name, unused imports included."""

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
        assert tracer.calls("core.evaluator.ingest") == result.updates
        assert tracer.calls("displayers.offer") == result.alerts > 0
        assert tracer.calls("core.serialization.render") == result.displayed
        # The tenant path raises alerts straight into the AD: no merge.
        assert tracer.calls("service.runtime.merge_stamped") == 0


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
