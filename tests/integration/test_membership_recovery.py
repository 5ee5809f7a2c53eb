"""Integration tests for the dynamic-membership lifecycle.

The PR's acceptance criterion, end to end: a property that *fails* under
a crash without recovery is *restored* once heartbeat detection and
state catch-up run — demonstrated on a pinned witness (both kernels),
aggregated by the churn sweep's ``recovery_restores_alerts`` gate, and
visible through the ``repro sweep churn`` and ``repro trace`` CLIs.
"""

from dataclasses import replace

import pytest

from repro.components.system import run_system
from repro.engine.spec import TrialSpec
from repro.faults import (
    CHURN_SWEEP,
    DEFAULT_CHURN_PROFILE,
    churn_specs,
    recovery_restores_alerts,
)
from repro.membership import MembershipConfig, churn_summary
from repro.observability import record_trial, replay_trace
from repro.simulation.failures import CrashSchedule
from repro.workloads.scenarios import SINGLE_VARIABLE_SCENARIOS, scenario_trial

#: Pinned witness: an aggressive (non-conservative historical) condition
#: with two replicas and one long CE1 outage.  The crash gap leaves CE1's
#: history incomplete, and the AD's merge of a gapped and a full replica
#: violates all three properties at this seed — until catch-up heals the
#: gap.  Found by sweeping seeds 0–39; pinned for regression.
SCENARIO = replace(SINGLE_VARIABLE_SCENARIOS["aggressive"], front_loss=0.0)
CRASHES = {0: CrashSchedule(((35.0, 62.0),))}
SEED = 5
N_UPDATES = 14


def _run(membership, kernel="array"):
    return run_system(
        *scenario_trial(
            SCENARIO, "pass", SEED,
            n_updates=N_UPDATES, replication=2,
            crash_schedules=CRASHES, membership=membership,
        ),
        seed=SEED, kernel=kernel,
    )


class TestRecoveryRestoresProperties:
    """The acceptance criterion, on the pinned witness."""

    @pytest.mark.parametrize("kernel", ["array", "object"])
    def test_crash_without_recovery_violates(self, kernel):
        report = _run(membership=None, kernel=kernel).evaluate_properties()
        summary = report.summary
        assert summary["ordered"] is False
        assert summary["complete"] is False
        assert summary["consistent"] is False

    @pytest.mark.parametrize("kernel", ["array", "object"])
    def test_detection_and_catchup_restore_all_three(self, kernel):
        run = _run(membership=MembershipConfig(), kernel=kernel)
        summary = run.evaluate_properties().summary
        assert summary["ordered"] is True
        assert summary["complete"] is True
        assert summary["consistent"] is True
        # The restoration was real work: updates were replayed into CE1.
        assert sum(run.caught_up) > 0
        event, = run.membership.recoveries
        assert event.successful and event.source == "peer:CE2"

    def test_restart_without_catchup_does_not_restore(self):
        # source="none" rejoins with the history hole intact — the
        # lifecycle alone is not enough; the state transfer is what heals.
        run = _run(membership=MembershipConfig(catchup_source="none"))
        summary = run.evaluate_properties().summary
        assert summary["complete"] is False
        assert sum(run.caught_up) == 0

    def test_churn_digest_reflects_the_recovery(self):
        run = _run(membership=MembershipConfig())
        digest = churn_summary(run)
        assert digest["recoveries"] == 1
        assert digest["recovered"] == 1
        assert digest["below_quorum"] is True  # quorum of 2, one CE down
        assert digest["mean_time_to_recover"] > 27.0  # crash len + catchup


class TestChurnSweep:
    """`repro sweep churn`'s engine: recovery measurably reduces
    missed alerts versus the crash-only baseline at every intensity."""

    @pytest.fixture(scope="class")
    def cells(self):
        return CHURN_SWEEP.run(
            intensities=(1.0, 2.0),
            detection_timeouts=(4.0,),
            catchup_latencies=(2.0,),
            trials=8,
        )

    def test_baseline_and_recovery_cells_share_seeds(self, cells):
        # The baseline (detection_timeout=None) and recovery cells at one
        # intensity must run identical seeds/crash schedules, so their
        # miss-rate difference is a pure recovery-policy effect.
        baselines = [c for c in cells if c["detection_timeout"] is None]
        recovered = [c for c in cells if c["detection_timeout"] is not None]
        assert {c["intensity"] for c in baselines} == {1.0, 2.0}
        assert all(c["trials"] == 8 for c in cells)
        assert recovered

    def test_recovery_restores_alerts_gate(self, cells):
        assert recovery_restores_alerts(cells)

    def test_recovery_cells_actually_caught_up(self, cells):
        assert any(
            c["caught_up"] > 0 for c in cells
            if c["detection_timeout"] is not None
        )

    def test_render_table_mentions_every_cell(self, cells):
        table = CHURN_SWEEP.render(cells)
        assert "off" in table  # the baseline row
        for cell in cells:
            assert f"{cell['intensity']:g}" in table

    def test_specs_are_deterministic(self):
        a = churn_specs(1.0, 4.0, 2.0, trials=4, base_seed=7)
        b = churn_specs(1.0, 4.0, 2.0, trials=4, base_seed=7)
        assert a == b
        # Same cell, different recovery knob: identical seeds by design.
        c = churn_specs(1.0, 6.0, 2.0, trials=4, base_seed=7)
        assert [s.seed for s in a] == [s.seed for s in c]
        assert [s.faults for s in a] == [s.faults for s in c]


class TestMembershipTraceRoundTrip:
    def test_record_replay_bit_identical_on_pinned_witness(self):
        spec = TrialSpec(
            "single", "aggressive", "pass", SEED, N_UPDATES,
            replication=2, front_loss=0.0,
            faults=DEFAULT_CHURN_PROFILE.scaled(1.5),
            membership=MembershipConfig(),
        )
        for kernel in ("array", "object"):
            trace = record_trial(replace(spec, kernel=kernel))
            assert any(e.stage == "membership" for e in trace.events)
            result = replay_trace(trace)
            assert result.identical, result.describe()


class TestMembershipCLI:
    def test_chaos_churn_gate_passes(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "churn",
            "--intensities", "1.0",
            "--detection-timeouts", "4.0",
            "--trials", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "detection + catch-up reduces missed alerts" in out
        assert "YES" in out

    def test_trace_record_with_membership_replays(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "membership.jsonl"
        code = main([
            "trace", "record", "aggressive", "--seed", str(SEED),
            "--updates", str(N_UPDATES), "--replication", "2",
            "--chaos", "1.5", "--membership",
            "--out", str(path),
        ])
        assert code == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["trace", "replay", str(path)]) == 0
        assert "bit-identical" in capsys.readouterr().out
