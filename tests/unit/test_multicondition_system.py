"""Unit tests for the simulated multi-condition systems (Fig D-7/D-8)."""

import pytest

from repro.components.system import SystemConfig
from repro.core.condition import c1
from repro.core.expressions import H
from repro.core.condition import ExpressionCondition
from repro.displayers.ad2 import AD2
from repro.displayers.registry import make_ad
from repro.multicondition.system import (
    DemuxAD,
    MultiConditionSystem,
    colocated_system,
)
from tests.conftest import alert_deg1, keys_of


def two_conditions():
    return [
        ExpressionCondition("hot", H.x[0].value > 3000),
        ExpressionCondition("cold", H.x[0].value < 2600),
    ]


WORKLOAD = {"x": [(t * 10.0, 2500.0 + (t % 7) * 120.0) for t in range(20)]}


class TestDemuxAD:
    def test_routes_and_records(self):
        demux = DemuxAD({"c": AD2("x")})
        a1 = alert_deg1(1, cond="c")
        a2 = alert_deg1(2, cond="c")
        late = alert_deg1(1, cond="c")
        assert demux.offer(a1) is True
        assert demux.offer(a2) is True
        assert demux.offer(late) is False
        assert demux.stream_output("c") == (a1, a2)

    def test_streams_independent(self):
        demux = DemuxAD({"a": AD2("x"), "b": AD2("x")})
        assert demux.offer(alert_deg1(5, cond="a")) is True
        # b's own stream starts fresh: seqno 1 passes there.
        assert demux.offer(alert_deg1(1, cond="b")) is True

    def test_unknown_condition_raises(self):
        demux = DemuxAD({"a": AD2("x")})
        with pytest.raises(KeyError):
            demux.offer(alert_deg1(1, cond="zzz"))

    def test_fresh_resets_substreams(self):
        demux = DemuxAD({"a": AD2("x")})
        demux.offer(alert_deg1(5, cond="a"))
        fresh = demux.fresh()
        assert fresh.offer(alert_deg1(1, cond="a")) is True

    def test_requires_algorithms(self):
        with pytest.raises(ValueError):
            DemuxAD({})


class TestMultiConditionSystem:
    def test_runs_and_separates_streams(self):
        system = MultiConditionSystem(
            two_conditions(),
            WORKLOAD,
            SystemConfig(replication=2, front_loss=0.0, ad_algorithm="AD-2"),
            seed=5,
        )
        result = system.run()
        assert set(result.streams) == {"hot", "cold"}
        for name, stream in result.streams.items():
            assert all(a.condname == name for a in stream)

    def test_merged_display_is_union_of_streams(self):
        system = MultiConditionSystem(
            two_conditions(),
            WORKLOAD,
            SystemConfig(replication=2, front_loss=0.2, ad_algorithm="AD-2"),
            seed=6,
        )
        result = system.run()
        merged = sorted(a.identity() for a in result.displayed)
        union = sorted(
            a.identity() for stream in result.streams.values() for a in stream
        )
        assert merged == union

    def test_per_stream_single_condition_guarantees(self):
        # Appendix D: each stream behaves like a single-condition system,
        # so AD-2 per stream gives per-stream orderedness.
        from repro.props.orderedness import check_orderedness

        for seed in range(10):
            system = MultiConditionSystem(
                two_conditions(),
                WORKLOAD,
                SystemConfig(replication=2, front_loss=0.3, ad_algorithm="AD-2"),
                seed=seed,
            )
            result = system.run()
            for stream in result.streams.values():
                assert check_orderedness(keys_of(stream), ["x"])

    def test_evaluate_stream(self):
        system = MultiConditionSystem(
            two_conditions(),
            WORKLOAD,
            SystemConfig(replication=2, front_loss=0.3, ad_algorithm="AD-4"),
            seed=9,
        )
        result = system.run()
        report = result.evaluate_stream("hot")
        assert report.ordered
        assert report.consistent

    def test_adaptive_sub_filters(self):
        # AdaptiveAD decides inside decide(), not in _accept/_record: the
        # demux must hand each alert to its stream's own offer(), and each
        # stream must then be what a lone AdaptiveAD shows on its arrivals.
        conditions = [c1(name="A"), c1(threshold=3100, name="B")]
        result = MultiConditionSystem(
            conditions,
            WORKLOAD,
            SystemConfig(replication=2, front_loss=0.3),
            seed=1,
            ad_algorithm_name="adaptive",
        ).run()
        assert result.displayed
        for condition in conditions:
            arrivals = [
                a for a in result.ad_arrivals if a.condname == condition.name
            ]
            alone = make_ad("adaptive", condition).offer_all(arrivals)
            assert list(result.streams[condition.name]) == alone

    def test_duplicate_condition_names_rejected(self):
        with pytest.raises(ValueError):
            MultiConditionSystem(
                [c1(name="same"), c1(name="same")],
                WORKLOAD,
                SystemConfig(),
            )

    def test_workload_coverage_validated(self):
        with pytest.raises(ValueError):
            MultiConditionSystem(two_conditions(), {"y": []}, SystemConfig())

    def test_deterministic(self):
        def run_once():
            return MultiConditionSystem(
                two_conditions(),
                WORKLOAD,
                SystemConfig(replication=2, front_loss=0.3),
                seed=77,
            ).run()

        assert run_once().displayed == run_once().displayed


class TestColocatedSystem:
    def test_reduces_to_single_condition(self):
        system = colocated_system(
            two_conditions(),
            WORKLOAD,
            SystemConfig(replication=1, ad_algorithm="pass"),
            seed=3,
        )
        result = system.run()
        assert result.condition.name == "C"
        # C fires exactly when hot or cold does (degree-1 conditions,
        # same interleaving): compare against separate single runs.
        from repro.components.system import run_system

        hot, cold = two_conditions()
        config = SystemConfig(replication=1, ad_algorithm="pass")
        hot_seqnos = {
            a.seqno("x")
            for a in run_system(hot, WORKLOAD, config, seed=3).displayed
        }
        cold_seqnos = {
            a.seqno("x")
            for a in run_system(cold, WORKLOAD, config, seed=3).displayed
        }
        combined = {a.seqno("x") for a in result.displayed}
        assert combined == hot_seqnos | cold_seqnos
