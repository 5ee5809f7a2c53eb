"""Unit tests for the diversity workload generators: bursty on/off
traffic, Zipf-skewed popularity, and correlated co-arriving updates."""

from random import Random

import pytest

from repro.workloads.generators import (
    bursty_readings,
    correlated_updates,
    zipf_counts,
    zipf_weights,
    zipfian_workload,
)
from repro.workloads.scenarios import (
    DIVERSITY_ROWS,
    MULTI_VARIABLE_SCENARIOS,
    ROW_ORDER,
    SINGLE_VARIABLE_SCENARIOS,
)


class TestSeededDeterminism:
    """Every generator is a pure function of its Random stream."""

    def test_bursty(self):
        assert bursty_readings(Random(7), 40) == bursty_readings(Random(7), 40)
        assert bursty_readings(Random(7), 40) != bursty_readings(Random(8), 40)

    def test_zipfian(self):
        kwargs = dict(n=50, variables=("x", "y", "z"))
        assert zipfian_workload(Random(3), **kwargs) == zipfian_workload(
            Random(3), **kwargs
        )

    def test_correlated(self):
        assert correlated_updates(Random(5), 30) == correlated_updates(
            Random(5), 30
        )


class TestBursty:
    def test_times_strictly_increase_after_the_first(self):
        readings = bursty_readings(Random(1), 60)
        times = [t for t, _ in readings]
        assert len(readings) == 60
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_gaps_are_bimodal(self):
        # Every inter-reading gap is either the burst cadence or the
        # idle separation — nothing in between.
        readings = bursty_readings(
            Random(2), 200, burst_interval=2.0, idle_interval=40.0
        )
        gaps = {
            round(b - a, 3)
            for (a, _), (b, _) in zip(readings, readings[1:])
        }
        assert gaps == {2.0, 40.0}

    def test_duty_cycle_is_bounded(self):
        # Mean burst length 4 ⇒ roughly one idle per four readings; the
        # busy fraction of the span must stay well below uniform cadence.
        readings = bursty_readings(
            Random(3), 400, burst_mean=4, burst_interval=2.0, idle_interval=40.0
        )
        span = readings[-1][0] - readings[0][0]
        burst_time = sum(
            b - a
            for (a, _), (b, _) in zip(readings, readings[1:])
            if b - a < 40.0
        )
        assert 0.0 < burst_time / span < 0.5

    def test_values_straddle_the_threshold(self):
        readings = bursty_readings(Random(4), 100, threshold=3000.0)
        assert any(v > 3000.0 for _, v in readings)
        assert any(v < 3000.0 for _, v in readings)

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_readings(Random(0), -1)
        with pytest.raises(ValueError):
            bursty_readings(Random(0), 5, burst_mean=0)
        with pytest.raises(ValueError):
            bursty_readings(Random(0), 5, burst_interval=0.0)


class TestZipf:
    def test_weights_normalize_and_decrease(self):
        weights = zipf_weights(8, exponent=1.2)
        assert sum(weights) == pytest.approx(1.0)
        # Rank-frequency law: strictly monotone decreasing in rank.
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(3, exponent=0.0)

    def test_counts_conserve_and_skew_to_the_head(self):
        counts = zipf_counts(Random(11), 4000, 6, exponent=1.2)
        assert sum(counts) == 4000
        assert counts[0] == max(counts)
        # The head rank dominates the tail rank by a wide margin.
        assert counts[0] > 4 * counts[-1]

    def test_counts_are_the_first_bound_above_each_roll(self):
        # The definition, as a scan per draw over the same RNG stream.
        for seed, n, k, exponent in ((7, 3000, 40, 1.2), (23, 500, 1, 1.2), (99, 2000, 3, 0.4)):
            bounds, acc = [], 0.0
            for weight in zipf_weights(k, exponent):
                acc += weight
                bounds.append(acc)
            rng, expected = Random(seed), [0] * k
            for _ in range(n):
                roll = rng.random()
                rank = next((r for r, b in enumerate(bounds) if roll < b), k - 1)
                expected[rank] += 1
            assert zipf_counts(Random(seed), n, k, exponent) == expected

    def test_a_roll_past_the_summed_weights_lands_on_the_last_rank(self):
        class Top(Random):
            def random(self):
                return 1.0  # past the last bound, as a float-sum tail is

        assert zipf_counts(Top(), 5, 4) == [0, 0, 0, 5]

    def test_workload_head_variable_dominates(self):
        per_var = zipfian_workload(Random(9), 300, variables=("x", "y", "z"))
        sizes = {var: len(readings) for var, readings in per_var.items()}
        assert sum(sizes.values()) >= 300  # starved vars may add one
        assert sizes["x"] > sizes["y"] > sizes["z"]

    def test_every_variable_has_a_reading(self):
        # Extreme skew: the tail would starve without the guarantee.
        per_var = zipfian_workload(
            Random(1), 8, variables=("x", "y", "z"), exponent=6.0
        )
        assert all(per_var[var] for var in ("x", "y", "z"))


class TestCorrelated:
    def test_echoes_lag_the_primary(self):
        per_var = correlated_updates(
            Random(21), 50, variables=("x", "y"), co_arrival_prob=0.8, lag=0.5
        )
        primary_times = {t for t, _ in per_var["x"]}
        echoes = [t for t, _ in per_var["y"] if t != 0.0]
        assert echoes  # co-arrival at p=0.8 over 50 slots
        assert all(round(t - 0.5, 6) in primary_times for t in echoes)

    def test_co_arrival_probability_shapes_echo_volume(self):
        dense = correlated_updates(Random(2), 200, co_arrival_prob=0.9)
        sparse = correlated_updates(Random(2), 200, co_arrival_prob=0.1)
        assert len(dense["y"]) > len(sparse["y"])

    def test_echo_values_track_the_primary(self):
        per_var = correlated_updates(Random(13), 80, sway=90.0)
        primary = dict(per_var["x"])
        for time, value in per_var["y"]:
            if time == 0.0:
                continue
            assert abs(value - primary[round(time - 0.5, 6)]) <= 0.2 * 90.0 + 0.1

    def test_zero_co_arrival_still_defines_every_history(self):
        per_var = correlated_updates(Random(1), 20, co_arrival_prob=0.0)
        assert per_var["y"] == [(0.0, 1000.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            correlated_updates(Random(0), 5, co_arrival_prob=1.5)
        with pytest.raises(ValueError):
            correlated_updates(Random(0), 5, variables=())


class TestScenarioWiring:
    def test_diversity_rows_exist_outside_the_tables(self):
        assert DIVERSITY_ROWS == ("bursty", "zipfian", "correlated")
        for row in DIVERSITY_ROWS:
            assert row not in ROW_ORDER  # golden tables stay untouched
        assert "bursty" in SINGLE_VARIABLE_SCENARIOS
        for row in DIVERSITY_ROWS:
            assert row in MULTI_VARIABLE_SCENARIOS

    def test_diversity_rows_simulate_on_both_kernels(self):
        from repro.engine.spec import TrialSpec

        for matrix, rows in (
            ("single", ("bursty",)),
            ("multi", DIVERSITY_ROWS),
        ):
            for row in rows:
                reports = [
                    TrialSpec(matrix, row, "AD-1", 77, 12, kernel=kernel).execute()
                    for kernel in ("object", "array")
                ]
                assert reports[0] == reports[1]