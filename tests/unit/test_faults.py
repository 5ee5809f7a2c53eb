"""Unit tests for the repro.faults package: fault primitives, profile
scaling/materialization, plan composition, and the chaos sweep fold."""

import json
import random
from dataclasses import asdict

import pytest

from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1
from repro.engine.spec import TrialSpec
from repro.faults import (
    DEFAULT_CHAOS_PROFILE,
    DelaySpikeSchedule,
    DuplicationAdversary,
    FaultPlan,
    FaultProfile,
    GilbertElliottParams,
    CHAOS_SWEEP,
    chaos_specs,
    replication_reduces_misses,
)
from repro.engine.sweep import Cell
from repro.observability.replay import record_trial
from repro.simulation.failures import CrashSchedule
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import threshold_crossers


class TestGilbertElliott:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            GilbertElliottParams(good_to_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottParams(loss_bad=-0.1)

    def test_enabled(self):
        assert not GilbertElliottParams().enabled
        assert GilbertElliottParams(good_to_bad=0.1).enabled
        assert GilbertElliottParams(loss_good=0.1).enabled

    def test_deterministic_in_the_rng_seed(self):
        model = GilbertElliottParams(0.3, 0.4, 0.05, 0.9).make_model()
        a = model.for_link(random.Random(7))
        b = model.for_link(random.Random(7))
        assert [a() for _ in range(200)] == [b() for _ in range(200)]

    def test_consumes_exactly_two_draws(self):
        model = GilbertElliottParams(0.3, 0.4, 0.05, 0.9).make_model()
        consumed = random.Random(11)
        model.for_link(consumed)()
        reference = random.Random(11)
        reference.random()
        reference.random()
        assert consumed.random() == reference.random()

    def test_per_rng_chains_are_independent(self):
        # One shared model, two links: driving one link's chain must not
        # move the other's state, and the model itself holds none.
        params = GilbertElliottParams(1.0, 0.0, 0.0, 1.0)  # jams Bad forever
        model = params.make_model()
        busy = model.for_link(random.Random(1))
        idle_rng = random.Random(2)
        model.for_link(idle_rng)
        assert all(busy() for _ in range(10))
        assert idle_rng.random() == random.Random(2).random()
        assert vars(model) == {"params": params}

    def test_bursts_correlate_losses(self):
        # Bad state is sticky and lossy: long-run loss rate must exceed
        # the good-state rate by far once the chain can enter Bad.
        params = GilbertElliottParams(0.1, 0.1, 0.0, 1.0)
        dropped = params.make_model().for_link(random.Random(3))
        losses = sum(dropped() for _ in range(5000))
        assert 0.2 < losses / 5000 < 0.8


class TestDuplicationAdversary:
    def test_validated(self):
        with pytest.raises(ValueError):
            DuplicationAdversary(duplicate_prob=2.0)
        with pytest.raises(ValueError):
            DuplicationAdversary(duplicate_prob=0.5, max_copies=0)

    def test_copies_bounded(self):
        adversary = DuplicationAdversary(duplicate_prob=1.0, max_copies=3)
        rng = random.Random(0)
        draws = [adversary.draw_copies(rng) for _ in range(200)]
        assert all(1 <= extra <= 3 for extra in draws)
        assert set(draws) == {1, 2, 3}

    def test_disabled_draws_nothing(self):
        adversary = DuplicationAdversary(duplicate_prob=0.0)
        rng = random.Random(0)
        assert all(adversary.draw_copies(rng) == 0 for _ in range(50))

    def test_draw_count_independent_of_outcome(self):
        # Never-duplicating and always-duplicating adversaries leave the
        # stream in the same state: toggling duplication shifts nothing.
        never = DuplicationAdversary(duplicate_prob=0.0, max_copies=3)
        always = DuplicationAdversary(duplicate_prob=1.0, max_copies=3)
        ra, rb = random.Random(9), random.Random(9)
        never.draw_copies(ra)
        always.draw_copies(rb)
        assert ra.random() == rb.random()


class TestDelaySpikeSchedule:
    def test_factor_at(self):
        spikes = DelaySpikeSchedule(((10.0, 20.0), (50.0, 60.0)), factor=5.0)
        assert spikes.factor_at(5.0) == 1.0
        assert spikes.factor_at(10.0) == 5.0
        assert spikes.factor_at(20.0) == 5.0
        assert spikes.factor_at(30.0) == 1.0
        assert spikes.factor_at(55.0) == 5.0

    def test_validated(self):
        with pytest.raises(ValueError):
            DelaySpikeSchedule(((10.0, 20.0),), factor=0.5)
        with pytest.raises(ValueError):
            DelaySpikeSchedule(((10.0, 5.0),), factor=2.0)
        with pytest.raises(ValueError, match="sorted"):
            DelaySpikeSchedule(((10.0, 20.0), (15.0, 30.0)), factor=2.0)

    @pytest.mark.parametrize("windows", [
        ((float("nan"), 5.0),),
        # NaN fails every comparison, so it used to pass the order check.
        ((1.0, float("nan")), (0.5, 2.0)),
        ((0.0, float("inf")),),
    ])
    def test_non_finite_windows_rejected_like_a_crash_schedules(self, windows):
        with pytest.raises(ValueError, match="spike window endpoints must be finite"):
            DelaySpikeSchedule(windows, factor=3.0)
        with pytest.raises(ValueError, match="crash window endpoints must be finite"):
            CrashSchedule(windows)


class TestFaultProfileScaling:
    def test_intensity_zero_is_clean(self):
        assert DEFAULT_CHAOS_PROFILE.scaled(0.0).is_clean

    def test_intensity_one_is_identity(self):
        assert DEFAULT_CHAOS_PROFILE.scaled(1.0) == DEFAULT_CHAOS_PROFILE

    def test_probabilities_clamp(self):
        wild = DEFAULT_CHAOS_PROFILE.scaled(1000.0)
        assert wild.burst_good_to_bad <= 1.0
        assert wild.duplicate_prob <= 1.0
        assert wild.ce_crash_rate == DEFAULT_CHAOS_PROFILE.ce_crash_rate * 1000

    def test_durations_do_not_scale(self):
        doubled = DEFAULT_CHAOS_PROFILE.scaled(2.0)
        assert doubled.ce_mean_repair == DEFAULT_CHAOS_PROFILE.ce_mean_repair
        assert doubled.burst_bad_to_good == DEFAULT_CHAOS_PROFILE.burst_bad_to_good

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CHAOS_PROFILE.scaled(-0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultProfile(ce_crash_rate=-1.0)

    def test_profile_survives_dict_round_trip(self):
        # The TrialSpec trace-header path: asdict -> JSON -> kwargs.
        reloaded = FaultProfile(
            **json.loads(json.dumps(asdict(DEFAULT_CHAOS_PROFILE)))
        )
        assert reloaded == DEFAULT_CHAOS_PROFILE


class TestFaultProfileMaterialize:
    def _materialize(self, profile, seed=4, replication=3):
        return profile.materialize(
            RandomStreams(seed), horizon=400.0, replication=replication,
            variables=("x", "y"),
        )

    def test_clean_profile_materializes_clean_plan(self):
        assert self._materialize(FaultProfile()).is_clean

    def test_deterministic_in_the_seed(self):
        a = self._materialize(DEFAULT_CHAOS_PROFILE)
        b = self._materialize(DEFAULT_CHAOS_PROFILE)
        assert a == b
        assert a != self._materialize(DEFAULT_CHAOS_PROFILE, seed=5)

    def test_covers_every_node_and_link(self):
        plan = self._materialize(DEFAULT_CHAOS_PROFILE.scaled(10.0))
        assert set(plan.ce_crashes) == {0, 1, 2}
        assert set(plan.dm_crashes) == {"x", "y"}
        assert plan.ad_crash is not None
        assert plan.burst_loss is not None
        assert plan.duplication is not None
        assert plan.front_delay_spikes is not None

    def test_materializing_does_not_touch_workload_streams(self):
        # Fault draws come from dedicated streams: the workload stream
        # yields the same values whether or not a plan was drawn first.
        streams = RandomStreams(8)
        DEFAULT_CHAOS_PROFILE.materialize(
            streams, horizon=300.0, replication=2, variables=("x",)
        )
        after = streams.stream("workload/x").random()
        assert after == RandomStreams(8).stream("workload/x").random()


class TestFaultPlan:
    def test_clean_apply_is_identity(self):
        config = SystemConfig(replication=2, ad_algorithm="AD-1")
        assert FaultPlan().apply_to(config) is config

    def test_apply_merges_existing_windows(self):
        config = SystemConfig(
            replication=2,
            ad_algorithm="AD-1",
            crash_schedules={0: CrashSchedule(((1.0, 2.0),))},
        )
        plan = FaultPlan(ce_crashes={0: CrashSchedule(((1.5, 3.0),))})
        merged = plan.apply_to(config)
        assert merged.crash_schedules[0].windows == ((1.0, 3.0),)


def _run(config, seed=0, n_updates=12):
    streams = RandomStreams(seed)
    workload = {"x": threshold_crossers(streams.stream("workload/x"), n_updates)}
    return run_system(c1(), workload, config, seed=seed)


class TestFaultInjectionEffects:
    def test_dm_crash_suppresses_readings(self):
        down_forever = CrashSchedule(((0.0, 1e9),))
        run = _run(
            SystemConfig(
                replication=1,
                ad_algorithm="AD-1",
                dm_crash_schedules={"x": down_forever},
            )
        )
        assert run.dm_suppressed == (12,)
        assert run.sent["x"] == ()
        assert run.displayed == ()

    def test_back_outage_delays_but_never_drops(self):
        baseline = _run(SystemConfig(replication=1, ad_algorithm="pass"))
        stalled = _run(
            SystemConfig(
                replication=1,
                ad_algorithm="pass",
                back_outages={0: CrashSchedule(((0.0, 500.0),))},
            )
        )
        # TCP semantics: every alert still arrives, just later.
        assert sorted(a.identity() for a in stalled.ad_arrivals) == sorted(
            a.identity() for a in baseline.ad_arrivals
        )

    def test_duplication_never_reaches_the_ce_twice(self):
        noisy = _run(
            SystemConfig(
                replication=2,
                ad_algorithm="pass",
                front_loss=0.0,
                front_duplication=DuplicationAdversary(
                    duplicate_prob=1.0, max_copies=2
                ),
            )
        )
        for trace in noisy.received:
            seqnos = [u.seqno for u in trace]
            assert seqnos == sorted(set(seqnos))

    def test_clean_profile_run_is_bit_identical_to_no_profile(self):
        spec_none = TrialSpec("single", "non-historical", "AD-2", 77, 10)
        spec_clean = TrialSpec(
            "single", "non-historical", "AD-2", 77, 10, faults=FaultProfile()
        )
        assert (
            record_trial(spec_none).event_lines()
            == record_trial(spec_clean).event_lines()
        )

    def test_fault_surface_is_traced(self):
        spec = TrialSpec(
            "single", "non-historical", "AD-2", 77, 10,
            faults=DEFAULT_CHAOS_PROFILE,
        )
        stages = {event.stage for event in record_trial(spec).events}
        assert "fault" in stages


class TestChaosSweep:
    def test_specs_are_seed_ordered_and_disjoint_across_cells(self):
        a = chaos_specs(1.0, 1, 5)
        b = chaos_specs(1.0, 2, 5)
        assert [s.seed for s in a] == sorted(s.seed for s in a)
        assert not {s.seed for s in a} & {s.seed for s in b}

    def test_intensity_zero_cell_is_fault_free(self):
        assert all(spec.faults is None for spec in chaos_specs(0.0, 2, 3))

    def test_sweep_smoke(self):
        cells = CHAOS_SWEEP.run(
            intensities=(0.0, 1.0), replications=(1, 2), trials=4,
            n_updates=12,
        )
        assert len(cells) == 4
        for cell in cells:
            assert cell["trials"] == 4
            assert {"ordered", "complete", "consistent"} <= set(cell.values)
            assert 0.0 <= cell["mean_miss_fraction"] <= 1.0

    def test_shape_check_flags_inversions(self):
        def cell(intensity, replication, miss):
            return Cell(
                {"intensity": intensity, "replication": replication},
                {"trials": 10, "mean_miss_fraction": miss},
            )

        good = [cell(1.0, 1, 0.4), cell(1.0, 2, 0.2)]
        assert replication_reduces_misses(good)
        inverted = [cell(1.0, 1, 0.2), cell(1.0, 2, 0.4)]
        assert not replication_reduces_misses(inverted)
        flat_but_needy = [cell(1.0, 1, 0.4), cell(1.0, 2, 0.4)]
        assert not replication_reduces_misses(flat_but_needy)
