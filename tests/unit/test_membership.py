"""Unit tests for the membership package: config validation, the
unreliable failure detector, analytic recovery planning, churn verdicts,
and the CrashSchedule edge cases the planner leans on."""

import math

import pytest

from repro.membership import (
    MembershipConfig,
    MembershipPlan,
    churn_summary,
    node_view,
    plan_membership,
)
from repro.props.report import PropertyTally
from repro.simulation.failures import CrashSchedule


# ---------------------------------------------------------------- config

class TestMembershipConfig:
    def test_defaults_construct(self):
        config = MembershipConfig()
        assert config.suspicion_window == 8.0
        assert config.catchup_source == "peer-then-log"

    @pytest.mark.parametrize("field,value", [
        ("heartbeat_interval", 0.0),
        ("heartbeat_interval", -1.0),
        ("heartbeat_delay", -0.5),
        ("detection_timeout", -1.0),
        ("catchup_latency", -2.0),
        ("retry_backoff", -1e-9),
        ("suspicion_threshold", 0),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            MembershipConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "heartbeat_interval", "heartbeat_delay", "detection_timeout",
        "catchup_latency", "retry_backoff",
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            MembershipConfig(**{field: bad})

    def test_rejects_unknown_catchup_source(self):
        with pytest.raises(ValueError, match="catchup_source"):
            MembershipConfig(catchup_source="carrier-pigeon")

    def test_with_value_clamps_to_kind(self):
        config = MembershipConfig()
        assert config.with_value("heartbeat_interval", -5.0).heartbeat_interval == 1e-3
        assert config.with_value("detection_timeout", -1.0).detection_timeout == 0.0
        assert config.with_value("suspicion_threshold", 0).suspicion_threshold == 1
        assert config.with_value("suspicion_threshold", 2.9).suspicion_threshold == 2
        assert config.with_value("catchup_source", "log").catchup_source == "log"

    def test_field_kinds_cover_every_field(self):
        import dataclasses
        assert [name for name, _ in MembershipConfig.knobs()] == [
            f.name for f in dataclasses.fields(MembershipConfig)
        ]

    def test_inert_values_are_the_defaults(self):
        config = MembershipConfig()
        for name, _ in MembershipConfig.knobs():
            assert getattr(config, name) == MembershipConfig.inert(name)
        with pytest.raises(KeyError):
            MembershipConfig.inert("nope")


# -------------------------------------------------------------- detector

class TestDetector:
    CONFIG = MembershipConfig(
        heartbeat_interval=5.0, heartbeat_delay=0.5,
        detection_timeout=4.0, suspicion_threshold=2,
    )

    def test_healthy_node_is_never_suspected(self):
        view = node_view("CE1", CrashSchedule.never(), self.CONFIG, 100.0)
        assert view.suspects == ()
        assert view.detections == ()
        assert view.missed_detections == 0
        assert view.heartbeats[:3] == (0.0, 5.0, 10.0)
        assert view.arrivals[:3] == (0.5, 5.5, 10.5)
        assert not view.believed_down(50.0)

    def test_long_crash_is_detected_with_bounded_latency(self):
        schedule = CrashSchedule(((20.0, 60.0),))
        view = node_view("CE1", schedule, self.CONFIG, 100.0)
        assert view.missed_detections == 0
        (crashed, detected), = view.detections
        assert crashed == 20.0
        # Last pre-crash heartbeat lands at 15.5; suspicion after the
        # 8-unit window of silence.
        assert detected == pytest.approx(23.5)
        assert view.believed_down(30.0)
        assert not view.believed_down(70.0)

    def test_short_crash_is_missed(self):
        # Down for less than the suspicion window and back before the
        # next heartbeat is due: nobody got impatient.
        schedule = CrashSchedule(((11.0, 14.0),))
        view = node_view("CE1", schedule, self.CONFIG, 100.0)
        assert view.detections == ()
        assert view.missed_detections == 1

    def test_impatient_detector_false_suspects(self):
        # Suspicion window (2) shorter than the heartbeat gap (5): every
        # inter-heartbeat silence looks like a crash.
        impatient = MembershipConfig(
            heartbeat_interval=5.0, heartbeat_delay=0.5,
            detection_timeout=2.0, suspicion_threshold=1,
        )
        view = node_view("CE1", CrashSchedule.never(), impatient, 20.0)
        assert view.suspects  # false positives, by design
        assert view.believed_down(3.0)

    def test_silence_near_horizon_stays_suspected(self):
        schedule = CrashSchedule(((90.0, 200.0),))
        view = node_view("CE1", schedule, self.CONFIG, 100.0)
        suspected, restored = view.suspects[-1]
        assert restored == 100.0  # the horizon sentinel


# --------------------------------------------------------------- planner

HORIZON = 200.0

def _plan(crashes, config=None, replication=2, ad=None):
    return plan_membership(
        crashes, ad, replication, config or MembershipConfig(), HORIZON
    )


class TestPlanner:
    def test_no_crashes_no_recoveries(self):
        plan = _plan({})
        assert isinstance(plan, MembershipPlan)
        assert plan.recoveries == ()
        assert plan.degraded == ()
        assert plan.quorum == 2
        assert len(plan.views) == 3  # CE1, CE2, AD

    def test_single_crash_recovers_from_live_peer(self):
        plan = _plan({0: CrashSchedule(((30.0, 60.0),))})
        event, = plan.recoveries
        assert event.ce_index == 0
        assert event.rejoin_time == pytest.approx(60.0, abs=1e-5)
        assert event.source == "peer:CE2"
        assert event.attempts == 0
        assert event.successful
        assert event.complete_time == pytest.approx(
            event.rejoin_time + 2.0  # default catchup_latency
        )
        assert [e for e in plan.recoveries if e.ce_index == 1] == []

    def test_log_source_when_no_peer_exists(self):
        plan = _plan({0: CrashSchedule(((30.0, 60.0),))}, replication=1)
        event, = plan.recoveries
        assert event.source == "log"

    def test_source_none_means_no_catchup(self):
        config = MembershipConfig(catchup_source="none")
        plan = _plan({0: CrashSchedule(((30.0, 60.0),))}, config=config)
        event, = plan.recoveries
        assert event.source == "none"
        assert event.complete_time is None
        assert not event.successful
        assert not event.aborted

    def test_incomplete_peer_costs_a_retry_backoff(self):
        # CE2's crash (51–54) is too short for anyone to suspect it, but
        # its slow catch-up is still in flight when CE1 rejoins at 60:
        # CE1 tries the believed-alive-but-incomplete peer, burns one
        # retry backoff, then falls back to the log.
        plan = _plan({
            0: CrashSchedule(((30.0, 60.0),)),
            1: CrashSchedule(((51.0, 54.0),)),
        }, config=MembershipConfig(catchup_latency=10.0, retry_backoff=1.0))
        ce1 = next(e for e in plan.recoveries if e.ce_index == 0)
        assert ce1.attempts == 1
        assert ce1.source == "log"
        assert ce1.complete_time == pytest.approx(60.0 + 1.0 + 10.0, abs=1e-5)

    def test_recrash_mid_transfer_aborts(self):
        plan = _plan({
            0: CrashSchedule(((30.0, 60.0), (61.0, 90.0))),
        })
        first, second = [e for e in plan.recoveries if e.ce_index == 0]
        assert first.aborted and first.complete_time is None
        assert second.successful

    def test_below_quorum_intervals(self):
        # Both CEs down together: zero complete replicas < quorum of 2.
        plan = _plan({
            0: CrashSchedule(((30.0, 60.0),)),
            1: CrashSchedule(((40.0, 70.0),)),
        })
        assert plan.degraded
        assert plan.degraded_time > 0.0
        assert 0.0 < plan.degraded_fraction < 1.0
        start, end = plan.degraded[0]
        assert start == pytest.approx(30.0)

    def test_metrics_roll_up(self):
        plan = _plan({0: CrashSchedule(((30.0, 60.0),))})
        assert len(plan.detection_latencies) == 1
        assert plan.missed_detections == 0
        latency, = plan.recovery_latencies
        assert latency == pytest.approx(60.0 + 2.0 - 30.0, abs=1e-5)


# --------------------------------------------------------------- verdicts

class _FakeRun:
    def __init__(self, plan, caught_up):
        self.membership = plan
        self.caught_up = caught_up


class TestChurnVerdicts:
    def test_summary_digest(self):
        plan = _plan({
            0: CrashSchedule(((30.0, 60.0),)),
            1: CrashSchedule(((40.0, 70.0),)),
        })
        digest = churn_summary(_FakeRun(plan, (3, 1)))
        assert digest["below_quorum"] is True
        assert digest["recoveries"] == 2
        assert digest["recovered"] == 2
        assert digest["caught_up"] == 4
        assert digest["mean_detection_latency"] is not None
        assert digest["mean_time_to_recover"] is not None

    def test_tally_splits_violations_by_quorum(self):
        from repro.props.orderedness import OrderednessResult

        def report(churn):
            from repro.props.report import PropertyReport
            return PropertyReport(
                ordered=OrderednessResult(False, "x", 0),
                complete=None,
                consistent=None,
                churn=churn,
            )

        tally = PropertyTally()
        tally.add(report({"below_quorum": True}), seed=1)
        tally.add(report({"below_quorum": False}), seed=2)
        tally.add(report(None), seed=3)  # membership off: not counted
        assert tally.degraded_runs == 1
        assert tally.violations_degraded == 1
        assert tally.violations_steady == 1


# -------------------------------------------- CrashSchedule edge cases

class TestCrashScheduleValidation:
    def test_nan_endpoints_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CrashSchedule(((math.nan, 5.0),))
        with pytest.raises(ValueError, match="finite"):
            CrashSchedule(((0.0, math.nan),))

    def test_infinite_endpoints_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CrashSchedule(((0.0, math.inf),))

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="before start"):
            CrashSchedule(((5.0, 3.0),))

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            CrashSchedule(((0.0, 10.0), (5.0, 15.0)))

    def test_unsorted_windows_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            CrashSchedule(((20.0, 30.0), (0.0, 10.0)))

    def test_zero_length_window_is_legal(self):
        schedule = CrashSchedule(((5.0, 5.0),))
        assert not schedule.is_up(5.0)
        assert schedule.is_up(5.0 + 1e-9)
        assert schedule.total_downtime == 0.0

    def test_adjacent_windows_chain_next_up_time(self):
        schedule = CrashSchedule(((0.0, 10.0), (10.0, 20.0)))
        assert schedule.next_up_time(5.0) == pytest.approx(20.0, abs=1e-5)

    def test_planner_handles_zero_length_and_adjacent_windows(self):
        plan = _plan({
            0: CrashSchedule(((30.0, 30.0),)),
            1: CrashSchedule(((40.0, 50.0), (50.0, 55.0))),
        })
        assert len(plan.recoveries) == 3
        assert all(
            e.successful or e.aborted for e in plan.recoveries
        )
