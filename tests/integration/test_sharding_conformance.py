"""Cross-shard conformance: a tenant population folds identically at
every shard count.

A Zipf-skewed tenant population runs through one and four shards; both
layouts must fold to the same XOR'd digest aggregate, and pinned
literals keep the per-tenant output from passing by agreeing with
itself.
"""

import pytest

import repro.core.evaluator
import repro.sharding.tenants
from repro.core.evaluator import ConditionEvaluator
from repro.displayers.base import ADAlgorithm
from repro.sharding.ring import ShardConfig
from repro.sharding.tenants import (
    ShardBatchResult,
    partition_tenants,
    run_shard,
    zipfian_update_counts,
)


class TestZipfianTenantPopulation:
    """A Zipf-skewed 100-tenant population through shards ∈ {1, 4}.

    Per-tenant update volumes come from
    :func:`~repro.sharding.tenants.zipfian_update_counts` — a pure
    function of ``(count, total, seed, exponent)``, independent of any
    ring layout — so both shard counts must fold to the same XOR'd
    digest aggregate and identical global counters, hot head tenants
    and starved tail included.
    """

    TENANTS = 100
    TOTAL_UPDATES = 1200
    SEED = 42
    # Recorded from the stamped-merge tenant path, so a change to
    # per-tenant output cannot pass by agreeing with itself.
    PINNED = {
        "tenants": 100,
        "updates": 2_157,
        "alerts": 751,
        "displayed": 425,
        "digest": "98bedbdb40a37c5de8bf8720e7b49ad9"
                  "1514015da0a76d1755bdfda7d8ec75ac",
    }

    def _aggregate(self, shards: int, tenants=TENANTS,
                   total_updates=TOTAL_UPDATES, seed=SEED):
        counts = zipfian_update_counts(tenants, total_updates, seed)
        per_tenant = {index: count for index, count in enumerate(counts)}
        batches = [
            run_shard(shard, indices, seed, update_counts=per_tenant)
            for shard, indices in enumerate(
                partition_tenants(tenants, ShardConfig(shards=shards))
            )
        ]
        return {
            "tenants": sum(b.tenants for b in batches),
            "updates": sum(b.updates for b in batches),
            "alerts": sum(b.alerts for b in batches),
            "displayed": sum(b.displayed for b in batches),
            "digest": ShardBatchResult.combine_digests(
                [b.digest for b in batches]
            ),
        }

    def test_one_and_four_shards_fold_identically(self):
        one = self._aggregate(1)
        four = self._aggregate(4)
        assert one == four
        assert one["tenants"] == self.TENANTS
        assert 0 < one["displayed"] <= one["alerts"]

    def test_one_shard_matches_the_pinned_literals(self):
        assert self._aggregate(1) == self.PINNED

    @pytest.mark.parametrize("shards", [1, 4])
    def test_the_tenant_path_builds_no_alert(self, shards, monkeypatch):
        def refuse(*args):
            raise AssertionError("the tenant path built or took an Alert")

        monkeypatch.setattr(repro.core.evaluator, "alert_from_key", refuse)
        monkeypatch.setattr(ConditionEvaluator, "ingest", refuse)
        monkeypatch.setattr(ADAlgorithm, "offer", refuse)
        monkeypatch.setattr(repro.sharding.tenants, "alert_canonical_line", refuse)
        assert self._aggregate(shards) == self.PINNED

    def test_benchmark_population_matches_the_pinned_literals(self):
        # tenant-batch's one-shard reference run (5,000 tenants, 120,000
        # updates, seed 7; ≈1 s).
        assert self._aggregate(1, 5_000, 120_000, 7) == {
            "tenants": 5_000,
            "updates": 215_892,
            "alerts": 85_493,
            "displayed": 47_824,
            "digest": "9c86a2cf03af27a112413d3a25784704"
                      "03313f00038c013d30ee88b616bde31f",
        }

    def test_population_is_actually_skewed(self):
        counts = zipfian_update_counts(
            self.TENANTS, self.TOTAL_UPDATES, self.SEED
        )
        assert sum(counts) == self.TOTAL_UPDATES
        # Head-heavy: the hottest tenant out-updates the whole tail
        # half, and some tail tenants are fully starved.
        assert max(counts) == counts[0]
        assert counts[0] > sum(counts[50:])
        assert min(counts) == 0
