"""Integration: counterexample extraction/shrinking on multi-variable runs."""

import pytest

from repro.analysis.witness import (
    counterexample_from_run,
    find_violation,
    replay,
    shrink_counterexample,
)
from repro.displayers.ad1 import AD1
from repro.workloads.scenarios import MULTI_VARIABLE_SCENARIOS, run_scenario


def find_multivar_violation(property_name: str, max_seeds: int = 200):
    scenario = MULTI_VARIABLE_SCENARIOS["non-historical"]
    for seed in range(max_seeds):
        run = run_scenario(scenario, "AD-1", seed, n_updates=8)
        counterexample = counterexample_from_run(run)
        if counterexample is not None and counterexample.violation == property_name:
            return counterexample
    pytest.fail(f"no multi-variable {property_name} violation found")


class TestMultiVariableWitness:
    def test_consistency_violation_found_and_replayable(self):
        counterexample = find_multivar_violation("consistent")
        _, report = replay(
            counterexample.condition,
            counterexample.traces,
            counterexample.arrival_pattern,
            AD1,
        )
        assert find_violation(report) == "consistent"

    def test_shrinks_toward_theorem_10_size(self):
        counterexample = find_multivar_violation("consistent")
        shrunk = shrink_counterexample(counterexample, AD1)
        assert shrunk.total_updates <= counterexample.total_updates
        # Theorem 10's hand-built example uses 4 updates per CE (2x + 2y);
        # the shrinker should land in that ballpark.
        assert shrunk.total_updates <= 10
        _, report = replay(
            shrunk.condition, shrunk.traces, shrunk.arrival_pattern, AD1
        )
        assert find_violation(report) == "consistent"

    def test_describe_shows_both_variables(self):
        counterexample = find_multivar_violation("consistent")
        shrunk = shrink_counterexample(counterexample, AD1)
        text = shrunk.describe()
        assert "x" in text and "y" in text


class TestCLIMultiVariablePaths:
    def test_cli_fuzz_minimizes_multi(self, capsys):
        from repro.cli import main

        code = main(
            ["fuzz", "--multi", "--row", "non-historical", "--algorithm",
             "AD-1", "--target", "consistency", "--updates", "8",
             "--budget", "60", "--minimize", "--minimize-limit", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent violated under AD-1" in out
        assert "replay OK" in out

    def test_cli_scenario_multi_timeline(self, capsys):
        from repro.cli import main

        code = main(
            ["scenario", "lossless", "--multi", "--algorithm", "AD-5",
             "--updates", "6", "--timeline"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DM-y" in out
