"""Unit tests for workload generators, scenarios, and canned traces."""

import random

import pytest

from repro.core.sequences import is_subsequence
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import (
    evenly_spaced,
    paired_reactors,
    rising_runs,
    stock_quotes,
    threshold_crossers,
)
from repro.workloads.scenarios import (
    DIVERSITY_ROWS,
    MULTI_VARIABLE_SCENARIOS,
    ROW_ORDER,
    SINGLE_VARIABLE_SCENARIOS,
    cm_historical,
    run_scenario,
)
from repro.workloads.traces import (
    example_1,
    example_2,
    interleave,
    theorem_4_example,
)


class TestGenerators:
    def test_evenly_spaced(self):
        readings = evenly_spaced([1.0, 2.0], interval=5.0, start=1.0)
        assert readings == [(1.0, 1.0), (6.0, 2.0)]

    def test_evenly_spaced_validates_interval(self):
        with pytest.raises(ValueError):
            evenly_spaced([1.0], interval=0.0)

    def test_threshold_crossers_both_sides(self):
        values = [v for _, v in threshold_crossers(random.Random(2), 100)]
        assert any(v > 3000 for v in values)
        assert any(v < 3000 for v in values)

    def test_rising_runs_produce_big_jumps(self):
        values = [v for _, v in rising_runs(random.Random(3), 200)]
        deltas = [b - a for a, b in zip(values, values[1:])]
        assert any(d > 200 for d in deltas)

    def test_stock_quotes_positive_and_crashing(self):
        values = [v for _, v in stock_quotes(random.Random(4), 300)]
        assert all(v >= 1.0 for v in values)
        drops = [b / a for a, b in zip(values, values[1:])]
        assert any(r < 0.8 for r in drops)  # >20% drop happens

    def test_paired_reactors_diverge(self):
        xs = [v for _, v in paired_reactors(random.Random(5), 200, phase=0.0)]
        ys = [v for _, v in paired_reactors(random.Random(6), 200, phase=40.0)]
        gaps = [abs(a - b) for a, b in zip(xs, ys)]
        assert any(g > 100 for g in gaps)

    def test_generators_deterministic(self):
        a = rising_runs(random.Random(7), 50)
        b = rising_runs(random.Random(7), 50)
        assert a == b

    def test_timestamps_increase(self):
        for gen in (threshold_crossers, rising_runs, stock_quotes,
                    paired_reactors):
            readings = gen(random.Random(8), 20)
            times = [t for t, _ in readings]
            assert times == sorted(times)


class TestScenarios:
    def test_row_order_matches_tables(self):
        assert ROW_ORDER == (
            "lossless",
            "non-historical",
            "conservative",
            "aggressive",
        )

    def test_all_rows_defined(self):
        # The golden tables iterate ROW_ORDER; the diversity rows ride
        # alongside ("bursty" in both matrices, the rest multi-only).
        assert set(SINGLE_VARIABLE_SCENARIOS) == set(ROW_ORDER) | {"bursty"}
        assert set(MULTI_VARIABLE_SCENARIOS) == set(ROW_ORDER) | set(DIVERSITY_ROWS)

    def test_lossless_rows_have_zero_loss(self):
        assert SINGLE_VARIABLE_SCENARIOS["lossless"].front_loss == 0.0
        assert MULTI_VARIABLE_SCENARIOS["lossless"].front_loss == 0.0

    def test_condition_shapes(self):
        assert not SINGLE_VARIABLE_SCENARIOS["non-historical"].make_condition().is_historical
        assert SINGLE_VARIABLE_SCENARIOS["conservative"].make_condition().is_conservative
        assert not SINGLE_VARIABLE_SCENARIOS["aggressive"].make_condition().is_conservative

    def test_condition_is_built_once_per_row(self):
        from dataclasses import replace

        built = []

        def factory():
            built.append(cm_historical(conservative=True))
            return built[-1]

        row = replace(MULTI_VARIABLE_SCENARIOS["conservative"], condition_factory=factory)
        assert row.make_condition() is row.make_condition() is built[0]
        assert len(built) == 1
        # A sweep point derived from the row is its own row.
        assert replace(row, front_loss=0.5).make_condition() is built[1]
        assert row == replace(row)  # the shared instance is not a field

    def test_cm_historical_variants(self):
        cons = cm_historical(conservative=True)
        aggr = cm_historical(conservative=False)
        assert cons.is_conservative and cons.is_historical
        assert not aggr.is_conservative and aggr.is_historical
        assert cons.degree("x") == 2 and cons.degree("y") == 1

    def test_workloads_cover_condition_variables(self):
        for scenarios in (SINGLE_VARIABLE_SCENARIOS, MULTI_VARIABLE_SCENARIOS):
            for scenario in scenarios.values():
                condition = scenario.make_condition()
                workload = scenario.make_workload(RandomStreams(0), 5)
                assert set(condition.variables) <= set(workload)

    def test_run_scenario_deterministic(self):
        scenario = SINGLE_VARIABLE_SCENARIOS["aggressive"]
        r1 = run_scenario(scenario, "AD-1", seed=11, n_updates=15)
        r2 = run_scenario(scenario, "AD-1", seed=11, n_updates=15)
        assert r1.displayed == r2.displayed

    def test_run_scenario_lossy_actually_loses(self):
        scenario = SINGLE_VARIABLE_SCENARIOS["non-historical"]
        run = run_scenario(scenario, "AD-1", seed=1, n_updates=40)
        assert any(len(t) < 40 for t in run.received)


class TestInterleave:
    def test_basic(self):
        ex = example_2()
        a1, a2 = ex.alert_streams
        merged = interleave([a1, a2], [1, 0])
        assert merged[0] == a2[0]
        assert merged[1] == a1[0]

    def test_rejects_exhausted_stream(self):
        ex = example_2()
        with pytest.raises(ValueError):
            interleave(ex.alert_streams, [0, 0])

    def test_rejects_unconsumed_stream(self):
        ex = example_2()
        with pytest.raises(ValueError):
            interleave(ex.alert_streams, [0])


class TestCannedTraces:
    def test_example_1_streams(self):
        ex = example_1()
        assert [a.seqno("x") for a in ex.alert_streams[0]] == [2, 3]
        assert [a.seqno("x") for a in ex.alert_streams[1]] == [3]

    def test_traces_are_subsequences(self):
        ex = example_1()
        assert is_subsequence(list(ex.traces[1]), list(ex.traces[0]))

    def test_theorem_4_alert_histories(self):
        ex = theorem_4_example()
        (a1,) = ex.alert_streams[0]
        (a2,) = ex.alert_streams[1]
        assert a1.histories.seqnos("x") == (2, 1)
        assert a2.histories.seqnos("x") == (3, 1)
