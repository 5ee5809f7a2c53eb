"""Cross-shard conformance: the sharded paths vs the direct core.

Sharding's contract is *output invisibility*.  One monitored condition
occupies one shard, so the single-condition path that carries state is
the ring resize: deliveries before the cut run on the old home shard,
the condition's state crosses to its new home (export, JSON round trip,
replay-validated restore, stale guard) and the rest runs there.  The
matrix here replays a resize that moves the condition's home against
:class:`~repro.service.runtime.DirectRuntime` over:

* the 8 pinned minimal ✗-cell witnesses of Tables 1–3 — each property
  violation must *survive* the handoff (a rebalance that accidentally
  "fixes" a violation is corrupting the semantics);
* healthy single- and multi-variable feeds (the multi-variable row's
  non-primary variable lives on another shard, and its updates follow
  the condition home);
* a chaos feed and a dynamic-membership feed, whose degraded delivery
  streams the handoff must carry through untouched;

and adds resizes at cut points from the first delivery to past the
last, and a Zipf-skewed tenant population that must fold identically at
one and four shards.
"""

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # `python -m pytest` from elsewhere
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.min_witnesses import RESULT_PATH  # noqa: E402

from repro.engine.spec import TrialSpec  # noqa: E402
from repro.faults import DEFAULT_CHAOS_PROFILE  # noqa: E402
from repro.membership import MembershipConfig  # noqa: E402
from repro.service import record_feed  # noqa: E402
from repro.service.runtime import ConformanceReport, DirectRuntime  # noqa: E402
from repro.sharding import (  # noqa: E402
    HashRing,
    ShardConfig,
    assign_condition,
    execute_rebalanced,
)

WITNESS_ENTRIES = json.loads(RESULT_PATH.read_text())

#: A resize that moves the home of every condition here (all are placed
#: by ``x``): shard 0 of two, then shard 2 of eight.
OLD_RING, NEW_RING = ShardConfig(shards=2), ShardConfig(shards=8)

#: Feeds are pure functions of their spec; cache across the matrix.
_FEEDS: dict[TrialSpec, object] = {}


def feed_for(spec: TrialSpec):
    if spec not in _FEEDS:
        _FEEDS[spec] = record_feed(spec)
    return _FEEDS[spec]


def assert_handoff_conformance(spec: TrialSpec):
    """Resize the ring mid-feed, moving the condition's home; the
    displayed bytes and verdicts must be the direct core's."""
    feed = feed_for(spec)
    condition = feed.condition()
    assert (
        assign_condition(condition, OLD_RING).home
        != assign_condition(condition, NEW_RING).home
    )
    result = execute_rebalanced(
        feed, OLD_RING, len(feed.deliveries) // 2, NEW_RING
    )
    assert result.counters["shard/handoff/ring"] == 1
    assert result.counters["shard/stale/guard"] == 0
    report = ConformanceReport(results=(DirectRuntime().execute(feed), result))
    assert report.identical, report.explain()
    return report


class TestMinimizedWitnessShards:
    """The 8 pinned ✗-cells: violations must survive the handoff."""

    @pytest.mark.parametrize(
        "entry", WITNESS_ENTRIES, ids=[e["cell"] for e in WITNESS_ENTRIES]
    )
    def test_witness_conforms_and_still_violates(self, entry):
        witness = entry["witness"]
        spec = TrialSpec(
            witness["matrix"], witness["row"], witness["algorithm"],
            witness["seed"], witness["n_updates"],
            replication=witness["replication"],
            front_loss=witness["front_loss"],
        )
        report = assert_handoff_conformance(spec)
        for result in report.results:
            assert result.verdicts[entry["target"]] is False, (
                f"{entry['cell']}: {result.runtime} must reproduce the "
                f"{entry['target']} violation"
            )


class TestHealthyFeeds:
    @pytest.mark.parametrize(
        "row,algorithm,replication",
        [
            ("lossless", "AD-1", 2),
            ("non-historical", "AD-2", 2),
            ("aggressive", "AD-4", 3),
        ],
    )
    def test_single_variable_rows(self, row, algorithm, replication):
        assert_handoff_conformance(
            TrialSpec("single", row, algorithm, seed=13, n_updates=30,
                      replication=replication)
        )

    def test_multi_variable_routing_pulls_both_variables_home(self):
        # cm references x and y; y lives on another shard of the new
        # ring, and its updates must follow the condition home.
        spec = TrialSpec("multi", "aggressive", "AD-5", seed=3, n_updates=24,
                         replication=3)
        home = assign_condition(feed_for(spec).condition(), NEW_RING).home
        assert HashRing(NEW_RING).shard_for("y") != home
        assert_handoff_conformance(spec)


class TestDegradedFeeds:
    def test_chaos_feed_conforms(self):
        assert_handoff_conformance(
            TrialSpec("single", "aggressive", "AD-4", seed=11, n_updates=30,
                      faults=DEFAULT_CHAOS_PROFILE.scaled(1.5))
        )

    def test_membership_feed_conforms(self):
        from repro.faults.plan import FaultProfile

        faults = FaultProfile(ce_crash_rate=0.01, ce_mean_repair=40.0)
        assert_handoff_conformance(
            TrialSpec("single", "aggressive", "AD-4", seed=5, n_updates=30,
                      replication=3, faults=faults,
                      membership=MembershipConfig())
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

    def _aggregate(self, shards: int, tenants=TENANTS,
                   total_updates=TOTAL_UPDATES, seed=SEED):
        from repro.sharding.ring import ShardConfig as Ring
        from repro.sharding.tenants import (
            ShardBatchResult,
            partition_tenants,
            run_shard,
            zipfian_update_counts,
        )

        counts = zipfian_update_counts(tenants, total_updates, seed)
        per_tenant = {index: count for index, count in enumerate(counts)}
        batches = [
            run_shard(shard, indices, seed, update_counts=per_tenant)
            for shard, indices in enumerate(
                partition_tenants(tenants, Ring(shards=shards))
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

    # Literals recorded from the stamped-merge tenant path, so a change
    # to per-tenant output cannot pass by agreeing with itself.
    def test_one_shard_matches_the_pinned_literals(self):
        assert self._aggregate(1) == {
            "tenants": 100,
            "updates": 2_157,
            "alerts": 751,
            "displayed": 425,
            "digest": "98bedbdb40a37c5de8bf8720e7b49ad9"
                      "1514015da0a76d1755bdfda7d8ec75ac",
        }

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
        from repro.sharding.tenants import zipfian_update_counts

        counts = zipfian_update_counts(
            self.TENANTS, self.TOTAL_UPDATES, self.SEED
        )
        assert sum(counts) == self.TOTAL_UPDATES
        # Head-heavy: the hottest tenant out-updates the whole tail
        # half, and some tail tenants are fully starved.
        assert max(counts) == counts[0]
        assert counts[0] > sum(counts[50:])
        assert min(counts) == 0


class TestRebalanceMidFeed:
    @pytest.mark.parametrize("cut", [0, 1, 17, 10_000])
    def test_resize_mid_feed_is_invisible(self, cut):
        spec = TrialSpec("single", "conservative", "AD-3", seed=9,
                         n_updates=30, replication=3)
        feed = feed_for(spec)
        reference = DirectRuntime().execute(feed)
        result = execute_rebalanced(
            feed, ShardConfig(shards=2), cut, ShardConfig(shards=8)
        )
        assert result.displayed_bytes() == reference.displayed_bytes()
        assert result.verdicts == reference.verdicts
