"""Unit tests for metrics, table machinery, and experiment drivers."""

import pytest

from repro.analysis.experiments import collect_arrival_streams
from repro.analysis.metrics import collect_metrics
from repro.analysis.tables import (
    EXPECTED_GRIDS,
    TABLE_CONFIG,
    build_table,
    grid_matches,
    render_table,
)
from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1
from repro.quality.metrics import alert_quality


WORKLOAD = {"x": [(float(t) * 10, 3100.0 if t % 2 else 2900.0) for t in range(10)]}


class TestMetrics:
    def test_collect_metrics_counts(self):
        config = SystemConfig(replication=2, front_loss=0.0)
        run = run_system(c1(), WORKLOAD, config, seed=1)
        metrics = collect_metrics(run)
        assert metrics.updates_sent == 10
        assert metrics.updates_received_per_ce == (10, 10)
        assert metrics.alerts_arrived == sum(metrics.alerts_generated_per_ce)

    def test_loss_fraction_under_loss(self):
        config = SystemConfig(replication=2, front_loss=0.5)
        run = run_system(c1(), WORKLOAD, config, seed=1)
        metrics = collect_metrics(run)
        assert min(metrics.updates_received_per_ce) < metrics.updates_sent

    def test_filter_fraction(self):
        config = SystemConfig(replication=2, front_loss=0.0, ad_algorithm="AD-1")
        run = run_system(c1(), WORKLOAD, config, seed=1)
        metrics = collect_metrics(run)
        # Lossless: CE2's alerts are exact duplicates -> half filtered.
        assert metrics.alerts_filtered / metrics.alerts_arrived == pytest.approx(0.5)

    def test_nothing_missed_by_a_perfect_system(self):
        config = SystemConfig(replication=2, front_loss=0.0)
        run = run_system(c1(), WORKLOAD, config, seed=1)
        quality = alert_quality(run)
        assert quality.expected == 5  # alternating above-threshold readings
        assert quality.detected == 5
        assert quality.missed == 0
        assert quality.recall == 1.0

    def test_everything_missed_under_total_loss(self):
        config = SystemConfig(replication=1, front_loss=1.0)
        run = run_system(c1(), WORKLOAD, config, seed=1)
        quality = alert_quality(run)
        assert quality.detected == 0
        assert quality.missed == quality.expected == 5
        assert quality.recall == 0.0

    def test_zero_expected_miss_fraction(self):
        cold = {"x": [(0.0, 2000.0)]}
        config = SystemConfig(replication=1, front_loss=0.0)
        run = run_system(c1(), cold, config, seed=1)
        quality = alert_quality(run)
        assert quality.expected == quality.missed == 0
        assert quality.recall == 1.0


class TestGridMatching:
    def test_exact_match(self):
        expected = EXPECTED_GRIDS["table1"]
        assert grid_matches(expected, expected)

    def test_mismatch_detected(self):
        expected = EXPECTED_GRIDS["table1"]
        wrong = dict(expected)
        wrong["lossless"] = (False, True, True)
        assert not grid_matches(wrong, expected)

    def test_none_cells_tolerated(self):
        expected = {"row": (True, False, True)}
        measured = {"row": (True, None, True)}
        assert grid_matches(measured, expected)

    def test_missing_row_fails(self):
        assert not grid_matches({}, {"row": (True, True, True)})

    def test_every_table_has_config_and_grid(self):
        assert set(EXPECTED_GRIDS) == set(TABLE_CONFIG)


class TestBuildTable:
    def test_small_table1_run(self):
        result = build_table("table1", trials=5, n_updates=12)
        assert set(result.tallies) == {
            "lossless",
            "non-historical",
            "conservative",
            "aggressive",
        }
        assert all(t.runs == 5 for t in result.tallies.values())

    def test_lossless_cells_always_clean(self):
        # The ✓ cells are theorems: even tiny runs must never violate them.
        result = build_table("table1", trials=5, n_updates=12)
        lossless = result.tallies["lossless"]
        assert lossless.always_ordered
        assert lossless.always_complete
        assert lossless.always_consistent

    def test_render_contains_rows(self):
        result = build_table("table2", trials=3, n_updates=10)
        text = render_table(result)
        assert "AD-2" in text
        for row in result.tallies:
            assert row in text

    def test_unknown_table_rejected(self):
        with pytest.raises(KeyError):
            build_table("table9")


class TestCollectArrivalStreams:
    def test_streams_collected(self):
        streams = collect_arrival_streams(trials=4, n_updates=10)
        assert 0 < len(streams) <= 4
        for stream in streams:
            assert len(stream) > 0

    def test_reproducible(self):
        s1 = collect_arrival_streams(trials=3, n_updates=10, base_seed=5)
        s2 = collect_arrival_streams(trials=3, n_updates=10, base_seed=5)
        assert s1 == s2
