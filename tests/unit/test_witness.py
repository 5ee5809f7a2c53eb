"""Unit tests for counterexample extraction and shrinking."""

import pytest

from repro.analysis.witness import (
    Counterexample,
    counterexample_from_run,
    find_violation,
    replay,
    shrink_counterexample,
)
from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1, c2
from repro.core.update import parse_trace
from repro.displayers.ad1 import AD1
from repro.props.report import evaluate_run
from repro.workloads.scenarios import SINGLE_VARIABLE_SCENARIOS, run_scenario
from tests.conftest import keys_of


def find_violating_run(property_name: str, algorithm="AD-1", row="aggressive"):
    scenario = SINGLE_VARIABLE_SCENARIOS[row]
    for seed in range(300):
        run = run_scenario(scenario, algorithm, seed, n_updates=25)
        counterexample = counterexample_from_run(run)
        if counterexample is not None and counterexample.violation == property_name:
            return run, counterexample
    pytest.fail(f"no {property_name} violation found in 300 seeds")


class TestFindViolation:
    def test_clean_run_has_no_violation(self):
        condition = c1()
        workload = {"x": [(t * 10.0, 3100.0) for t in range(5)]}
        run = run_system(condition, workload, SystemConfig(front_loss=0.0), seed=1)
        assert counterexample_from_run(run) is None

    def test_severity_order(self):
        # Consistency is reported before completeness before orderedness.
        condition = c2()
        u1 = parse_trace("1x(400), 2x(700), 3x(720)")
        u2 = parse_trace("1x(400), 3x(720)")
        from repro.core.evaluator import ConditionEvaluator

        alerts = (
            ConditionEvaluator(condition).ingest_all(u1)
            + ConditionEvaluator(condition).ingest_all(u2)
        )
        report = evaluate_run(condition, [u1, u2], keys_of(alerts))
        assert find_violation(report) == "consistent"


class TestReplay:
    def test_replay_reproduces_simple_pipeline(self):
        condition = c1()
        traces = [parse_trace("1x(3100), 2x(3200)"), parse_trace("2x(3200)")]
        displayed, report = replay(condition, traces, [0, 1, 0], AD1)
        # CE1 alerts on 1,2; CE2 alerts on 2. AD-1 dedups CE2's copy.
        assert [a.seqno("x") for a in displayed] == [1, 2]
        assert report.complete

    def test_replay_pattern_leniency(self):
        condition = c1()
        traces = [parse_trace("1x(3100)"), parse_trace("1x(3100)")]
        # Pattern names CE2 more often than it has alerts: extras skipped,
        # leftovers appended.
        displayed, _ = replay(condition, traces, [1, 1, 1, 0], AD1)
        assert len(displayed) == 1  # duplicate removed


class TestCounterexampleFromRun:
    def test_extracts_pattern_and_traces(self):
        run, counterexample = find_violating_run("consistent")
        assert counterexample.ad_algorithm == "AD-1"
        assert len(counterexample.traces) == 2
        assert len(counterexample.arrival_pattern) == len(run.ad_arrivals)

    def test_describe_renders(self):
        _, counterexample = find_violating_run("consistent")
        text = counterexample.describe()
        assert "consistent violated" in text
        assert "U1 =" in text


class TestShrink:
    def test_shrinks_and_preserves_violation(self):
        _, counterexample = find_violating_run("consistent")
        condition = counterexample.condition
        shrunk = shrink_counterexample(counterexample, AD1)
        assert shrunk.total_updates <= counterexample.total_updates
        # The shrunk instance must still violate consistency on replay.
        displayed, report = replay(
            condition, shrunk.traces, shrunk.arrival_pattern, AD1
        )
        assert find_violation(report) == "consistent"

    def test_shrunk_is_one_minimal(self):
        _, counterexample = find_violating_run("consistent")
        condition = counterexample.condition
        shrunk = shrink_counterexample(counterexample, AD1)
        # Removing any single remaining update kills the violation.
        for ce_index in range(len(shrunk.traces)):
            for update_index in range(len(shrunk.traces[ce_index])):
                candidate = [list(t) for t in shrunk.traces]
                del candidate[ce_index][update_index]
                _, report = replay(
                    condition, candidate, shrunk.arrival_pattern, AD1
                )
                assert find_violation(report) != "consistent"

    def test_theorem4_scale(self):
        # The paper's Theorem-4 counterexample needs 3+2 updates; our
        # shrinker should land in the same ballpark (2 per CE is the
        # true minimum when values can differ).
        _, counterexample = find_violating_run("consistent")
        shrunk = shrink_counterexample(counterexample, AD1)
        assert shrunk.total_updates <= 6

    def test_rejects_unknown_violation(self):
        _, counterexample = find_violating_run("consistent")
        bad = Counterexample(
            condition=counterexample.condition,
            violation="bogus",
            traces=counterexample.traces,
            arrival_pattern=counterexample.arrival_pattern,
            ad_algorithm="AD-1",
            displayed=counterexample.displayed,
        )
        with pytest.raises(ValueError):
            shrink_counterexample(bad, AD1)
