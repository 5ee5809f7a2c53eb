"""Unit tests for pooled trial execution (TrialEngine and build_table)."""

import logging

import pytest

from repro.analysis.tables import build_table
from repro.engine import TrialEngine, TrialSpec

SPECS = [TrialSpec("single", "aggressive", "AD-1", seed, 12) for seed in range(6)]


def run_trials(specs, processes=1, chunksize=None):
    with TrialEngine(processes=processes, chunksize=chunksize) as engine:
        return engine.run(specs)


class TestRunTrials:
    def test_sequential(self):
        assert run_trials(SPECS, processes=1) == [s.execute() for s in SPECS]

    def test_parallel_matches_sequential(self):
        sequential = run_trials(SPECS, processes=1)
        parallel = run_trials(SPECS, processes=2)
        assert [r.summary for r in sequential] == [r.summary for r in parallel]

    def test_invalid_processes(self):
        with pytest.raises(ValueError):
            run_trials(SPECS, processes=0)


class TestBuildTableParallel:
    def test_matches_sequential_build_table(self):
        kwargs = dict(trials=8, n_updates=12, base_seed=777)
        sequential = build_table("table2", **kwargs)
        with TrialEngine(processes=2, chunksize=1) as engine:
            parallel = build_table("table2", engine=engine, **kwargs)
        for row in sequential.tallies:
            s, p = sequential.tallies[row], parallel.tallies[row]
            assert s.runs == p.runs
            assert s.ordered_violations == p.ordered_violations
            assert s.completeness_violations == p.completeness_violations
            assert s.consistency_violations == p.consistency_violations

    def test_parallel_multi_table(self):
        with TrialEngine(processes=2, chunksize=1) as engine:
            result = build_table(
                "table3",
                trials=4,
                n_updates=10,
                completeness_trials=6,
                completeness_n_updates=5,
                engine=engine,
            )
        for row, tally in result.tallies.items():
            assert tally.runs == 10
            assert tally.always_ordered  # AD-5 Lemma 4, any process count


class TestRunTrialsRegressions:
    def test_single_spec_respects_result_despite_processes(self, caplog):
        # A one-spec batch runs inline on a multi-process engine; the
        # shortcut is logged and still returns that spec's report.
        with caplog.at_level(logging.DEBUG, logger="repro.engine.core"):
            reports = run_trials(SPECS[:1], processes=4)
        assert reports == [SPECS[0].execute()]
        assert any("inline" in record.message for record in caplog.records)

    def test_chunksize_parameterized(self):
        default = run_trials(SPECS, processes=2)
        chunked = run_trials(SPECS, processes=2, chunksize=2)
        assert [r.summary for r in default] == [r.summary for r in chunked]
        table = dict(trials=4, n_updates=10)
        with TrialEngine(processes=2, chunksize=1) as engine:
            chunked_table = build_table("table2", engine=engine, **table)
        assert chunked_table.tallies == build_table("table2", **table).tallies

    def test_auto_processes_accepted(self):
        reports = run_trials(SPECS[:2], processes="auto")
        assert [r.summary for r in reports] == [
            spec.execute().summary for spec in SPECS[:2]
        ]
        table = dict(trials=2, n_updates=8)
        with TrialEngine(processes="auto") as engine:
            auto_table = build_table("table2", engine=engine, **table)
        assert auto_table.tallies == build_table("table2", **table).tallies
