"""Unit tests for the coverage-guided fuzzer building blocks.

Campaign-level behaviour (differential oracles, shrinker laws, pinned
minimal witnesses) lives in the integration and property suites; here we
pin the value-object semantics: signature extraction, config
validation, reseeding, corpus/finding bookkeeping, and the shrinker's
contract on single inputs.
"""

from dataclasses import replace

import pytest

from repro.analysis.witness import violates
from repro.engine.spec import TrialSpec
from repro.faults import DEFAULT_CHAOS_PROFILE
from repro.fuzz import (
    FuzzConfig,
    FuzzEngine,
    coverage_signature,
    new_features,
    shrink_spec,
    signature_key,
    uniform_specs,
)
from repro.engine import INLINE_ENGINE
from repro.fuzz.coverage import covered_kind
from repro.observability import replay_trace


class TestCoveredKind:
    def test_behavioural_stages_always_covered(self):
        assert covered_kind("fault", "ce-crash")
        assert covered_kind("dm", "suppress")
        assert covered_kind("ad", "display")

    def test_link_deviations_covered_bulk_traffic_not(self):
        assert covered_kind("link", "drop")
        assert covered_kind("link", "drop:burst")
        assert covered_kind("link", "hold")
        assert covered_kind("link", "duplicate")
        assert not covered_kind("link", "send")
        assert not covered_kind("link", "deliver")

    def test_ce_alert_surface_covered_updates_not(self):
        assert covered_kind("ce", "missed")
        assert covered_kind("ce", "alert-raised")
        assert not covered_kind("ce", "update-received")

    def test_kernel_stage_never_covered(self):
        assert not covered_kind("kernel", "event")


class TestCoverageSignature:
    SUMMARY = {"ordered": True, "complete": False, "consistent": None}

    def test_verdict_vector_always_present(self):
        signature = coverage_signature(None, self.SUMMARY)
        assert signature == {
            "verdict:ordered:True",
            "verdict:complete:False",
            "verdict:consistent:None",
        }

    def test_hits_and_per_stage_buckets(self):
        counters = {
            "link/drop:burst/DM-x->CE1": 3,
            "link/send/DM-x->CE1": 50,  # bulk traffic: excluded
            "ad/display/AD": 2,
            "ad/reject:seqno regression/AD": 1,
        }
        signature = coverage_signature(counters, self.SUMMARY)
        assert "hit:link/drop:burst" in signature
        assert "hit:ad/display" in signature
        assert "hit:ad/reject:seqno regression" in signature
        assert not any("send" in feature for feature in signature)
        # Buckets are per stage: link total 3 -> bucket 2, ad total 3 -> 2.
        assert "n:link:2" in signature
        assert "n:ad:2" in signature

    def test_bucket_collapses_nearby_counts(self):
        low = coverage_signature({"link/drop/L": 5}, self.SUMMARY)
        same = coverage_signature({"link/drop/L": 7}, self.SUMMARY)
        higher = coverage_signature({"link/drop/L": 9}, self.SUMMARY)
        assert low == same  # 5 and 7 share bit_length 3
        assert low != higher  # 9 crosses into bucket 4

    def test_key_is_canonical_and_new_features_subtracts(self):
        signature = coverage_signature(None, self.SUMMARY)
        assert signature_key(signature) == tuple(sorted(signature))
        seen = {"verdict:ordered:True"}
        fresh = new_features(signature, seen)
        assert "verdict:ordered:True" not in fresh
        assert "verdict:complete:False" in fresh


class TestFuzzConfig:
    def test_rejects_unknown_target_and_bad_budget(self):
        with pytest.raises(ValueError):
            FuzzConfig(target="availability")
        with pytest.raises(ValueError):
            FuzzConfig(budget=0)
        with pytest.raises(ValueError):
            FuzzConfig(batch_size=0)
        assert FuzzConfig(target=None).target is None

    @pytest.mark.parametrize(
        "name,value", [("n_updates", 0), ("n_updates", -3), ("replication", 0)]
    )
    def test_rejects_a_count_below_one(self, name, value):
        # Every child keeps the configured counts, so nothing downstream
        # would clamp a bad one.
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
            FuzzConfig(**{name: value})

    def test_initial_specs_deterministic_and_coverage_enabled(self):
        config = FuzzConfig(fuzz_seed=3)
        first = config.initial_specs()
        assert first == FuzzConfig(fuzz_seed=3).initial_specs()
        assert first != FuzzConfig(fuzz_seed=4).initial_specs()
        assert all(spec.collect_coverage for spec in first)

    def test_initial_corpus_carries_a_mild_and_a_heavy_chaos_profile(self):
        # Reseeding never changes a fault profile, so these two entries
        # are the campaign's whole fault surface.
        profiles = [
            spec.faults for spec in FuzzConfig().initial_specs()
            if spec.faults is not None
        ]
        assert profiles == [
            DEFAULT_CHAOS_PROFILE.scaled(0.5),
            DEFAULT_CHAOS_PROFILE.scaled(2.0),
        ]

    def test_initial_specs_respect_a_tiny_budget(self):
        assert len(FuzzConfig(budget=3).initial_specs()) == 3


class TestUniformSpecs:
    def test_budget_many_distinct_sequential_seeds(self):
        config = FuzzConfig(budget=17)
        specs = uniform_specs(config)
        assert len(specs) == 17
        assert len({spec.seed for spec in specs}) == 17
        assert all(spec.collect_coverage for spec in specs)
        assert all(spec.faults is None for spec in specs)


class _RecordingEngine:
    """The inline trial engine, keeping every batch it was handed."""

    def __init__(self):
        self.batches = []

    def run(self, batch):
        self.batches.append(list(batch))
        return INLINE_ENGINE.run(batch)


def _campaign_batches(config):
    engine = _RecordingEngine()
    FuzzEngine(config, engine=engine).run()
    return engine.batches


class TestFuzzEngine:
    CONFIG = FuzzConfig(budget=80, batch_size=16)

    def test_child_differs_from_its_parent_only_in_seed(self):
        initial, *children = _campaign_batches(self.CONFIG)
        assert initial == self.CONFIG.initial_specs()
        # Every corpus entry descends from an initial spec by reseeding,
        # so each child is an initial spec under another seed.
        for child in (spec for batch in children for spec in batch):
            assert child not in initial
            assert any(replace(spec, seed=child.seed) == child for spec in initial)

    def test_campaign_is_a_function_of_the_fuzz_seed(self):
        same = _campaign_batches(self.CONFIG)
        assert same == _campaign_batches(self.CONFIG)
        assert same != _campaign_batches(replace(self.CONFIG, fuzz_seed=1))

    def test_campaign_is_deterministic(self):
        first = FuzzEngine(self.CONFIG).run()
        second = FuzzEngine(self.CONFIG).run()
        assert first.executed == second.executed == 80
        assert [f.spec for f in first.findings] == [
            f.spec for f in second.findings
        ]
        assert first.distinct_signatures == second.distinct_signatures

    def test_findings_are_deduplicated_by_signature(self):
        result = FuzzEngine(self.CONFIG).run()
        keys = [signature_key(f.signature) for f in result.findings]
        assert len(keys) == len(set(keys))
        assert result.distinct_violating_signatures == len(result.findings)

    def test_findings_replay_without_collection_flags(self):
        result = FuzzEngine(self.CONFIG).run()
        assert result.findings, "the aggressive/AD-2 cell must yield some"
        finding = result.findings[0]
        witness = finding.witness_spec
        assert not witness.collect_coverage
        assert violates(witness.execute(), finding.violation)

    def test_corpus_growth_is_bounded_by_new_features(self):
        result = FuzzEngine(self.CONFIG).run()
        assert 1 <= result.corpus_size <= result.executed
        assert result.features >= 3  # at least the verdict vector


class TestShrinkSpec:
    @staticmethod
    def _violating_spec(n_updates: int = 12) -> TrialSpec:
        for seed in range(200):
            spec = TrialSpec("single", "aggressive", "AD-2", seed, n_updates)
            if violates(spec.execute(), "consistent"):
                return spec
        raise AssertionError("no consistency violation in 200 seeds")

    def test_refuses_a_non_violating_input(self):
        # AD-3 guarantees consistency; there is nothing to shrink.
        spec = TrialSpec("single", "aggressive", "AD-3", 0, 10)
        with pytest.raises(ValueError, match="does not violate"):
            shrink_spec(spec, "consistent")

    def test_shrunk_witness_still_violates_and_replays(self):
        spec = self._violating_spec()
        result = shrink_spec(spec, "consistent")
        assert result.spec.n_updates <= spec.n_updates
        assert violates(result.spec.execute(), "consistent")
        assert result.counterexample.violation == "consistent"
        replay = replay_trace(result.trace)
        assert replay.identical, replay.describe()

    def test_shrinking_strips_collection_flags(self):
        spec = self._violating_spec()
        flagged = TrialSpec(
            spec.matrix, spec.row, spec.algorithm, spec.seed,
            spec.n_updates, collect_coverage=True,
        )
        result = shrink_spec(flagged, "consistent")
        assert not result.spec.collect_coverage
        assert not result.spec.collect_counters

    def test_shrink_result_describes_itself(self):
        result = shrink_spec(self._violating_spec(), "consistent")
        text = result.describe()
        assert "shrunk witness" in text
        assert "consistent violated" in text


class TestFaultProfileMutationSupport:
    def test_with_value_clamps_by_kind(self):
        profile = DEFAULT_CHAOS_PROFILE
        assert profile.with_value("duplicate_prob", 2.0).duplicate_prob == 1.0
        assert profile.with_value("duplicate_prob", -1.0).duplicate_prob == 0.0
        assert profile.with_value("ce_crash_rate", -0.5).ce_crash_rate == 0.0
        assert (
            profile.with_value("delay_spike_factor", 0.2).delay_spike_factor
            == 1.0
        )
        assert profile.with_value("max_duplicates", 0).max_duplicates == 1
        # An untyped kind keeps the value's own type: a shrunk witness
        # header prints ``"ce_crash_rate": 0``.
        assert type(profile.with_value("ce_crash_rate", 0).ce_crash_rate) is int

    def test_with_value_rejects_unknown_fields(self):
        with pytest.raises(KeyError):
            DEFAULT_CHAOS_PROFILE.with_value("not_a_field", 1.0)
