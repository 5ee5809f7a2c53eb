"""Unit tests for the trial engine (specs, chunking, executor, plans)."""

import logging

import pytest

from repro.engine import (
    MAX_CHUNKSIZE,
    TrialEngine,
    TrialSpec,
    default_chunksize,
    plan_table,
    resolve_processes,
    tabulate,
)
from repro.workloads.scenarios import ROW_ORDER


class TestResolveProcesses:
    def test_auto_is_at_least_one(self):
        assert resolve_processes("auto") >= 1

    def test_int_passthrough(self):
        assert resolve_processes(3) == 3
        assert resolve_processes("2") == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_processes(0)
        with pytest.raises(ValueError):
            resolve_processes(-4)


class TestDefaultChunksize:
    def test_sequential_is_one(self):
        assert default_chunksize(1000, 1) == 1

    def test_small_batches_stay_fine_grained(self):
        assert default_chunksize(6, 2) == 1
        assert default_chunksize(16, 4) == 1

    def test_large_batches_are_capped(self):
        # The old len//(4*p) rule would hand out 1250-trial chunks here.
        assert default_chunksize(10_000, 2) == MAX_CHUNKSIZE

    def test_never_zero(self):
        for n in (0, 1, 2, 7, 100):
            for p in (1, 2, 8):
                assert default_chunksize(n, p) >= 1


class TestTrialSpec:
    def test_execute_matches_run_scenario(self):
        from repro.workloads.scenarios import (
            SINGLE_VARIABLE_SCENARIOS,
            run_scenario,
        )

        spec = TrialSpec("single", "aggressive", "AD-1", 99, 12)
        direct = run_scenario(
            SINGLE_VARIABLE_SCENARIOS["aggressive"], "AD-1", 99, n_updates=12
        ).evaluate_properties()
        assert spec.execute().summary == direct.summary

    def test_front_loss_override(self):
        spec = TrialSpec(
            "single", "aggressive", "AD-1", 1, 10, front_loss=0.0
        )
        assert spec.resolve_scenario().front_loss == 0.0
        base = TrialSpec("single", "aggressive", "AD-1", 1, 10)
        assert base.resolve_scenario().front_loss > 0.0


class TestTrialEngine:
    SPECS = [
        TrialSpec("single", "aggressive", "AD-1", seed, 12)
        for seed in range(8)
    ]

    def test_inline_matches_parallel(self):
        inline = TrialEngine(processes=1).run(self.SPECS)
        with TrialEngine(processes=2) as engine:
            pooled = engine.run(self.SPECS)
        assert [r.summary for r in inline] == [r.summary for r in pooled]

    def test_empty_batch(self):
        assert TrialEngine(processes=1).run([]) == []

    def test_pool_persists_across_batches(self):
        with TrialEngine(processes=2) as engine:
            first = engine.run(self.SPECS[:4])
            pool = engine._pool
            second = engine.run(self.SPECS[4:])
            assert engine._pool is pool  # same workers, no respawn
        assert len(first) + len(second) == len(self.SPECS)

    def test_single_spec_runs_inline_with_log(self, caplog):
        engine = TrialEngine(processes=4)
        with caplog.at_level(logging.DEBUG, logger="repro.engine.core"):
            reports = engine.run(self.SPECS[:1])
        assert len(reports) == 1
        assert engine._pool is None  # no pool was spun up
        assert any("inline" in record.message for record in caplog.records)

    def test_explicit_chunksize(self):
        with TrialEngine(processes=2, chunksize=3) as engine:
            reports = engine.run(self.SPECS)
        assert len(reports) == len(self.SPECS)

    def test_invalid_chunksize(self):
        with pytest.raises(ValueError):
            TrialEngine(processes=2, chunksize=0)

    def test_run_tally_counts_all_specs(self):
        tally = TrialEngine(processes=1).run_tally(self.SPECS)
        assert tally.runs == len(self.SPECS)


class TestSingleSpecFallback:
    """The single-spec inline fallback must be a pure optimization: every
    execution path — processes=1, the inline fallback of a multi-process
    engine, and a genuine pooled batch — yields identical reports and
    identical folded tallies for the same spec."""

    SPEC = TrialSpec("single", "conservative", "AD-2", 7331, 12)

    def test_fallback_report_identical_to_sequential_and_pooled(self):
        sequential = TrialEngine(processes=1).run([self.SPEC])[0]
        fallback = TrialEngine(processes=4).run([self.SPEC])[0]
        with TrialEngine(processes=2) as engine:
            # Pad the batch so it actually crosses the pool, then pick the
            # padded copy of our spec back out.
            pad = TrialSpec("single", "lossless", "pass", 1, 4)
            pooled = engine.run([self.SPEC, pad])[0]
        assert fallback == sequential
        assert pooled == sequential

    def test_fallback_tally_identical_to_pooled_tally(self):
        inline_tally = TrialEngine(processes=1).run_tally([self.SPEC])
        fallback_tally = TrialEngine(processes=4).run_tally([self.SPEC])
        assert fallback_tally == inline_tally
        assert fallback_tally.runs == 1

    def test_fallback_preserves_counters(self):
        traced = TrialSpec(
            "single", "conservative", "AD-2", 7331, 12, collect_counters=True
        )
        inline_tally = TrialEngine(processes=1).run_tally([traced])
        fallback_tally = TrialEngine(processes=4).run_tally([traced])
        assert fallback_tally.counters == inline_tally.counters
        assert fallback_tally.counters  # tracing was actually on
        # Verdicts are unaffected by tracing (counters ride along only).
        untraced_tally = TrialEngine(processes=1).run_tally([self.SPEC])
        assert fallback_tally.cell() == untraced_tally.cell()


class TestCountersAggregation:
    def test_run_tally_sums_counters_across_pooled_trials(self):
        specs = [
            TrialSpec(
                "single", "aggressive", "AD-1", seed, 10, collect_counters=True
            )
            for seed in range(6)
        ]
        inline = TrialEngine(processes=1).run_tally(specs)
        with TrialEngine(processes=2) as engine:
            pooled = engine.run_tally(specs)
        assert pooled.counters == inline.counters
        # Sums must equal the per-trial counters added up by hand.
        per_trial = [spec.execute().counters for spec in specs]
        expected: dict[str, int] = {}
        for counters in per_trial:
            for key, count in counters.items():
                expected[key] = expected.get(key, 0) + count
        assert pooled.counters == expected
        stages = pooled.stage_counters()
        assert set(stages) <= {"kernel", "link", "ce", "ad"}
        assert stages["ad"]["arrive"] == (
            stages["ad"].get("display", 0) + stages["ad"].get("filter", 0)
        )


class TestTablePlan:
    def test_plan_covers_all_rows(self):
        plan = plan_table("table3", trials=2, completeness_trials=3)
        assert len(plan.specs) == 4 * (2 + 3)
        assert {spec.row for spec in plan.specs} == set(ROW_ORDER)

    def test_single_variable_tables_skip_completeness_batch(self):
        plan = plan_table("table1", trials=2)
        assert len(plan.specs) == 4 * 2

    def test_tabulate_rejects_mismatched_reports(self):
        plan = plan_table("table1", trials=2)
        with pytest.raises(ValueError):
            tabulate(plan, [])


#: The TestGoldenEquivalence configuration, shared with the pinned layout.
GOLDEN_KWARGS = dict(
    trials=3,
    n_updates=10,
    base_seed=4242,
    completeness_trials=3,
    completeness_n_updates=5,
)

#: Per row: (first, last) seed of the main batch, then of the +7_000_000
#: completeness batch, under GOLDEN_KWARGS.  Recorded from the seeds
#: build_table passed to run_scenario while it still carried its own copy
#: of the derivation (commit 8a7013f), so a drift in plan_table — now the
#: only copy — cannot hide behind a comparison of the code with itself.
PINNED_SEEDS = {
    "table2": {
        "lossless": (66143, 66145, 7066143, 7066145),
        "non-historical": (10587, 10589, 7010587, 7010589),
        "conservative": (82633, 82635, 7082633, 7082635),
        "aggressive": (78779, 78781, 7078779, 7078781),
    },
    "table3": {
        "lossless": (66949, 66951, 7066949, 7066951),
        "non-historical": (94922, 94924, 7094922, 7094924),
        "conservative": (27251, 27253, 7027251, 7027253),
        "aggressive": (5240, 5242, 7005240, 7005242),
    },
}

_MISSING_ONE = {"complete": "missing=1 extraneous=0"}

#: Per table and row under GOLDEN_KWARGS: (first_unordered_seed,
#: first_incomplete_seed, first_inconsistent_seed, witnesses); rows not
#: listed witnessed no violation.  Recorded at the same commit.
PINNED_WITNESSES = {
    "table1": {
        "non-historical": (
            7041966, None, None,
            {"ordered": "inversion in x at alert index 1"},
        ),
        "conservative": (None, 74367, None, _MISSING_ONE),
        "aggressive": (
            None, 89675, 89675,
            {
                "complete": "missing=0 extraneous=1",
                "consistent": "alert #1 a(4x,3x) requires update 3 "
                "received, but an earlier alert requires it missed",
            },
        ),
    },
    "table2": {
        "conservative": (None, 82633, None, _MISSING_ONE),
        "aggressive": (
            None, 78779, 78780,
            {
                "complete": "missing=2 extraneous=1",
                "consistent": "alert #2 a(7x,5x) requires update 6 "
                "missed, but an earlier alert requires it received",
            },
        ),
    },
    "table3": {
        "non-historical": (
            None, 94922, None, {"complete": "missing=7 extraneous=11"},
        ),
        "conservative": (
            None, 27251, None, {"complete": "missing=7 extraneous=6"},
        ),
        "aggressive": (
            None, 5240, 5240,
            {
                "complete": "missing=8 extraneous=10",
                "consistent": "update 4x is required received by one "
                "alert and required missed by another",
            },
        ),
    },
    "ad3": {
        "conservative": (None, 22265, None, _MISSING_ONE),
        "aggressive": (
            None, 5420, None, {"complete": "missing=3 extraneous=2"},
        ),
    },
    "ad4": {
        "non-historical": (None, 73725, None, _MISSING_ONE),
        "conservative": (None, 7031833, None, _MISSING_ONE),
        "aggressive": (None, 53001, None, _MISSING_ONE),
    },
    "ad6": {
        "non-historical": (
            None, 67900, None, {"complete": "missing=6 extraneous=12"},
        ),
        "conservative": (
            None, 35101, None, {"complete": "missing=7 extraneous=3"},
        ),
        "aggressive": (
            None, 10076, None, {"complete": "missing=8 extraneous=7"},
        ),
    },
}


class TestPinnedSeedLayout:
    """plan_table is the only seed derivation; these literals are what it
    must keep producing for every committed witness seed to stay valid."""

    @pytest.mark.parametrize("table_id", sorted(PINNED_SEEDS))
    def test_batch_boundaries(self, table_id):
        plan = plan_table(table_id, **GOLDEN_KWARGS)
        assert [spec.row for spec in plan.specs] == [
            row for row in ROW_ORDER for _ in range(6)
        ]
        for row in ROW_ORDER:
            main = [
                spec.seed for spec in plan.specs
                if spec.row == row and spec.n_updates == 10
            ]
            short = [
                spec.seed for spec in plan.specs
                if spec.row == row and spec.n_updates == 5
            ]
            assert (main[0], main[-1], short[0], short[-1]) == (
                PINNED_SEEDS[table_id][row]
            ), row

    @pytest.mark.parametrize("table_id", sorted(PINNED_WITNESSES))
    def test_first_violation_seeds_and_witnesses(self, table_id):
        from repro.analysis.tables import build_table

        result = build_table(table_id, **GOLDEN_KWARGS)
        for row, tally in result.tallies.items():
            assert (
                tally.first_unordered_seed,
                tally.first_incomplete_seed,
                tally.first_inconsistent_seed,
                tally.witnesses,
            ) == PINNED_WITNESSES[table_id].get(row, (None, None, None, {})), row


#: The first ``table3-grid`` block of the repo benchmark at ``--seed 7``
#: (``benchmarks/perf``: 150 trials a cell, 30 updates, base seed
#: 20_010_800 + 7 * 1_000_003): the sha256 of its tallies, each row's
#: ``asdict`` in one ``json.dumps(..., sort_keys=True)``.
BENCHMARK_BLOCK_DIGEST = (
    "1b325a4c3374a35eda8fc6af6033faf326953581efeebd863e04e742831ef193"
)


def test_the_benchmark_table3_block_matches_its_pinned_digest():
    """The block the benchmark times, pinned to a literal here too: the
    harness only checks that block 0 repeats its own first digest, so a
    change that shifted every run's tallies would pass it."""
    import hashlib
    import json
    from dataclasses import asdict

    plan = plan_table(
        "table3", trials=150, n_updates=30, base_seed=20_010_800 + 7 * 1_000_003
    )
    with TrialEngine(processes=1) as engine:
        table = tabulate(plan, engine.run(plan.specs))
    rows = {row: asdict(tally) for row, tally in table.tallies.items()}
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == BENCHMARK_BLOCK_DIGEST
    assert table.matches_paper()


class TestGoldenEquivalence:
    """build_table over a 4-worker pool must be bit-identical to the
    inline processes=1 run — same tallies, witnesses and seeds — for
    every table the paper reports."""

    TABLE_IDS = ("table1", "table2", "table3", "ad3", "ad4", "ad6")

    def test_parallel_matches_sequential_everywhere(self):
        from repro.analysis.tables import build_table

        with TrialEngine(processes=4) as engine:
            for table_id in self.TABLE_IDS:
                sequential = build_table(table_id, **GOLDEN_KWARGS)
                parallel = build_table(
                    table_id, engine=engine, **GOLDEN_KWARGS
                )
                # PropertyTally is a plain dataclass: == compares every
                # counter, first-violation seed and witness string.
                assert parallel.tallies == sequential.tallies, table_id
                assert (
                    parallel.measured_grid() == sequential.measured_grid()
                ), table_id

    def test_counters_ride_along_on_the_same_builder(self):
        # What `repro tables --counters` runs: same verdicts as the plain
        # table, and the summed counters do not depend on the pool.
        from repro.analysis.tables import build_table

        plain = build_table("table3", **GOLDEN_KWARGS)
        inline = build_table("table3", collect_counters=True, **GOLDEN_KWARGS)
        with TrialEngine(processes=2, chunksize=1) as engine:
            pooled = build_table(
                "table3", collect_counters=True, engine=engine, **GOLDEN_KWARGS
            )
        assert pooled.tallies == inline.tallies
        assert inline.measured_grid() == plain.measured_grid()
        for row, tally in inline.tallies.items():
            assert tally.counters and not plain.tallies[row].counters, row


def _small_sweeps():
    """name -> callable(engine) running a small instance of each sweep
    family; every result compares with plain ``==``."""
    from repro.analysis.sweeps import LOSS_SWEEP, REPLICATION_SWEEP
    from repro.faults import CHAOS_SWEEP, CHURN_SWEEP
    from repro.fuzz import FuzzConfig, FuzzEngine
    from repro.quality import QUALITY_SWEEP

    def fuzz(engine):
        result = FuzzEngine(FuzzConfig(budget=60), engine=engine).run()
        return result.executed, result.corpus_size, result.findings

    return {
        "loss_sweep": lambda engine: LOSS_SWEEP.run(
            engine, algorithms=("AD-1",), losses=(0.0, 0.3), trials=4,
            n_updates=10,
        ),
        "replication_sweep": lambda engine: REPLICATION_SWEEP.run(
            engine, algorithms=("AD-1",), replications=(1, 3), trials=4,
            n_updates=10,
        ),
        "chaos_sweep": lambda engine: CHAOS_SWEEP.run(
            engine, intensities=(0.0, 1.5), replications=(1, 2), trials=4,
            n_updates=12,
        ),
        "churn_sweep": lambda engine: CHURN_SWEEP.run(
            engine, intensities=(1.0, 2.0), detection_timeouts=(4.0,),
            catchup_latencies=(1.0, 2.0), trials=4,
        ),
        "quality_sweep": lambda engine: QUALITY_SWEEP.run(
            engine, algorithms=("AD-1", "adaptive"), losses=(0.0, 0.3),
            intensities=(0.0, 1.0), trials=3, row="non-historical",
            n_updates=12,
        ),
        "FuzzEngine": fuzz,
    }


class TestSweepEquivalence:
    """Every sweep is one plan on one engine: the default (inline) engine
    and a two-worker pool must fold to equal cells."""

    @pytest.mark.parametrize("name", sorted(_small_sweeps()))
    def test_engine_sweep_matches_inline(self, name):
        from repro.engine import INLINE_ENGINE

        sweep = _small_sweeps()[name]
        inline = sweep(INLINE_ENGINE)
        with TrialEngine(processes=2) as engine:
            pooled = sweep(engine)
        assert inline and inline == pooled

    def test_default_engine_is_the_inline_engine(self):
        import inspect

        from repro.engine import INLINE_ENGINE
        from repro.engine.sweep import Sweep
        from repro.fuzz import FuzzEngine

        assert INLINE_ENGINE.processes == 1
        for function in (Sweep.run, FuzzEngine.__init__):
            default = inspect.signature(function).parameters["engine"].default
            assert default is INLINE_ENGINE, function

    @pytest.mark.parametrize(
        "sweep, axes, empty",
        [
            ("chaos_sweep", dict(intensities=()), "intensities"),
            ("chaos_sweep", dict(replications=()), "replications"),
            (
                "churn_sweep",
                dict(detection_timeouts=(2.0,), catchup_latencies=()),
                "catchup_latencies",
            ),
            ("churn_sweep", dict(detection_timeouts=()), "detection_timeouts"),
            ("quality_sweep", dict(algorithms=()), "algorithms"),
            ("quality_sweep", dict(losses=()), "losses"),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_empty_axis_is_rejected_by_name(self, sweep, axes, empty):
        from repro.faults import CHAOS_SWEEP, CHURN_SWEEP
        from repro.quality import QUALITY_SWEEP

        declared = {
            "chaos_sweep": CHAOS_SWEEP,
            "churn_sweep": CHURN_SWEEP,
            "quality_sweep": QUALITY_SWEEP,
        }[sweep]
        with pytest.raises(ValueError, match=f"'{empty}' is empty"):
            declared.run(trials=1, **axes)

    def test_an_unknown_setting_is_a_type_error_naming_it(self):
        from repro.faults import CHAOS_SWEEP

        with pytest.raises(TypeError, match="'replication'"):
            CHAOS_SWEEP.run(replication=2)


class TestPinnedCellSeeds:
    """The seed block of a cell is ``base_seed + crc32(key) % 100_000``
    of its key string; these literals (taken from the commit before the
    layouts were merged into ``engine.plan.cell_specs``) must not move,
    or every recorded witness seed stops naming its trial."""

    def test_first_and_last_seed_of_each_layout(self):
        from repro.faults import chaos_specs, churn_specs
        from repro.quality.sweep import quality_specs

        def ends(specs):
            return specs[0].seed, specs[-1].seed

        assert ends(plan_table("table3", trials=3).specs) == (20073507, 27011800)
        assert ends(chaos_specs(1.0, 2, 3)) == (20099646, 20099648)
        assert ends(churn_specs(1.0, 4.0, 2.0, 3)) == (20092306, 20092308)
        assert ends(
            quality_specs("adaptive", 0.2, 1.0, 3, row="aggressive")
        ) == (20035070, 20035072)

    def test_cells_that_must_replay_identical_schedules_share_seeds(self):
        from repro.faults import churn_specs
        from repro.quality.sweep import quality_specs

        def seeds(specs):
            return [spec.seed for spec in specs]

        # Churn: one block per intensity, whatever the recovery knobs.
        assert seeds(churn_specs(1.0, None, 2.0, 5)) == seeds(
            churn_specs(1.0, 6.0, 4.0, 5)
        )
        # Quality: one block per (loss, intensity), whatever the algorithm.
        assert seeds(quality_specs("AD-1", 0.3, 1.0, 5)) == seeds(
            quality_specs("adaptive", 0.3, 1.0, 5)
        )


class TestOneRunSite:
    """``TrialSpec.run`` is the only expansion of a spec into
    ``scenario_trial`` and ``run_system``: no entry point may drop a knob
    on the way."""

    @pytest.fixture
    def spec(self):
        from repro.faults.plan import DEFAULT_CHAOS_PROFILE
        from repro.membership.config import MembershipConfig

        # Violates consistency, so shrink_spec accepts it.
        return TrialSpec(
            "single", "aggressive", "AD-1", 0, 12, replication=2,
            front_loss=0.3, faults=DEFAULT_CHAOS_PROFILE.scaled(0.5),
            kernel="object", membership=MembershipConfig(),
        )

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.workloads import scenarios

        seen = []
        build, run = scenarios.scenario_trial, scenarios.run_system

        def spy_build(scenario, algorithm, seed, **knobs):
            seen.append((scenario.front_loss, algorithm, seed, knobs))
            return build(scenario, algorithm, seed, **knobs)

        def spy_run(*args, seed, tracer=None, kernel):
            seen[-1][-1]["kernel"] = kernel
            return run(*args, seed=seed, tracer=tracer, kernel=kernel)

        monkeypatch.setattr(scenarios, "scenario_trial", spy_build)
        monkeypatch.setattr(scenarios, "run_system", spy_run)
        return seen

    @staticmethod
    def assert_every_call_carries(spec, calls, expected_calls):
        assert len(calls) == expected_calls
        for front_loss, algorithm, seed, knobs in calls:
            assert (front_loss, algorithm, seed, knobs) == (
                spec.front_loss,
                spec.algorithm,
                spec.seed,
                dict(
                    n_updates=spec.n_updates,
                    replication=spec.replication,
                    faults=spec.faults,
                    kernel="object",
                    membership=spec.membership,
                ),
            )

    def test_shrink_spec(self, spec, calls):
        from repro.fuzz import shrink_spec

        # No reduction allowed: the violation check, the final
        # counterexample run and the recorded trace all run `spec`.
        shrunk = shrink_spec(
            spec, "consistent", min_updates=spec.n_updates, max_passes=0
        )
        assert shrunk.spec == spec
        self.assert_every_call_carries(spec, calls, 3)

    def test_record_trial(self, spec, calls):
        from repro.observability import record_trial

        record_trial(spec)
        self.assert_every_call_carries(spec, calls, 1)

    def test_record_feed_and_kernel_runtime(self, spec, calls):
        from repro.service import KernelRuntime, record_feed

        feed = record_feed(spec)
        KernelRuntime("object").execute(feed)
        self.assert_every_call_carries(spec, calls, 2)


class TestCompletenessCeiling:
    def test_n_updates_8_fully_decided(self):
        # The pruned DFS lifts the old enumeration ceiling of 5 readings
        # per variable: at 8 readings every short-batch completeness check
        # must reach a definite verdict (nothing undecided, nothing
        # skipped by the interleaving-count guard).
        from repro.analysis.tables import build_table

        result = build_table(
            "table3",
            trials=2,
            n_updates=12,
            completeness_trials=5,
            completeness_n_updates=8,
        )
        for row, tally in result.tallies.items():
            assert tally.completeness_undecided == 0, row
            assert tally.completeness_checked >= 5, row
