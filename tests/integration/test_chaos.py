"""Chaos tests: every failure mode at once, invariants intact.

Runs systems under simultaneous CE crashes, AD downtime, link outages,
heterogeneous loss and wide delay spreads, and checks the invariants no
amount of failure is allowed to break:

* per-CE traces are ordered subsequences of the DM output;
* back links lose nothing: generated alerts = arrivals (eventually);
* displayed + filtered = arrivals; displayed ⊑ arrivals;
* the guarantee algorithms (AD-4) keep their properties;
* runs stay deterministic in the seed.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1, c2
from repro.core.sequences import is_subsequence
from repro.props.consistency import check_consistency_single
from repro.props.orderedness import check_orderedness
from repro.simulation.failures import CrashSchedule, random_crash_schedule
from repro.simulation.network import UniformDelay
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import rising_runs
from tests.conftest import keys_of


def chaos_config(seed: int, replication: int = 3, ad_algorithm: str = "AD-1") -> SystemConfig:
    streams = RandomStreams(seed)
    horizon = 400.0
    return SystemConfig(
        replication=replication,
        ad_algorithm=ad_algorithm,
        front_loss=0.25,
        front_loss_per_ce={1: 0.5},
        front_outages={
            0: random_crash_schedule(streams.stream("outage0"), horizon, 0.01, 40.0)
        },
        crash_schedules={
            index: random_crash_schedule(
                streams.stream(f"crash{index}"), horizon, 0.008, 50.0
            )
            for index in range(replication)
        },
        ad_crash_schedule=random_crash_schedule(
            streams.stream("ad"), horizon, 0.01, 60.0
        ),
        front_delay=UniformDelay(0.05, 3.0),
        back_delay=UniformDelay(0.05, 40.0),
    )


def chaos_workload(seed: int, n: int = 35):
    streams = RandomStreams(seed + 999)
    return {"x": rising_runs(streams.stream("w"), n)}


SEEDS = list(range(12))


class TestChaosInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_traces_remain_ordered_subsequences(self, seed):
        run = run_system(
            c2(), chaos_workload(seed), chaos_config(seed), seed=seed
        )
        sent = list(run.sent["x"])
        for trace in run.received:
            assert is_subsequence(list(trace), sent)
            seqnos = [u.seqno for u in trace]
            assert seqnos == sorted(seqnos)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_back_links_lose_nothing(self, seed):
        run = run_system(
            c2(), chaos_workload(seed), chaos_config(seed), seed=seed
        )
        generated = sorted(a.identity() for a in run.all_generated)
        arrived = sorted(a.identity() for a in run.ad_arrivals)
        assert generated == arrived

    @pytest.mark.parametrize("seed", SEEDS)
    def test_arrival_accounting(self, seed):
        run = run_system(
            c2(), chaos_workload(seed), chaos_config(seed), seed=seed
        )
        assert len(run.displayed) + len(run.filtered) == len(run.ad_arrivals)
        assert is_subsequence(
            [a.identity() for a in run.displayed],
            [a.identity() for a in run.ad_arrivals],
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ad4_guarantees_survive_chaos(self, seed):
        run = run_system(
            c2(),
            chaos_workload(seed),
            chaos_config(seed, ad_algorithm="AD-4"),
            seed=seed,
        )
        assert check_orderedness(keys_of(run.displayed), ["x"])
        assert check_consistency_single(keys_of(run.displayed), "x")

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_determinism_under_chaos(self, seed):
        first = run_system(
            c2(), chaos_workload(seed), chaos_config(seed), seed=seed
        )
        second = run_system(
            c2(), chaos_workload(seed), chaos_config(seed), seed=seed
        )
        assert first.displayed == second.displayed
        assert first.ad_arrival_times == second.ad_arrival_times

    def test_total_blackout_is_silent_not_broken(self):
        config = SystemConfig(
            replication=2,
            front_loss=1.0,
            ad_crash_schedule=CrashSchedule(((0.0, 10_000.0),)),
        )
        run = run_system(c1(), chaos_workload(1), config, seed=1)
        assert run.displayed == ()
        report = run.evaluate_properties()
        # The empty sequence is ordered and consistent (and complete,
        # since no CE received anything).
        assert report.ordered
        assert report.consistent
        assert report.complete
