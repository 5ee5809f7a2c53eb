"""Unit tests for DataMonitor, CENode, ADNode and MonitoringSystem."""

import random

import pytest

from repro.components.ad_node import ADNode
from repro.components.ce_node import CENode
from repro.components.data_monitor import DataMonitor
from repro.components.system import MonitoringSystem, SystemConfig, run_system
from repro.core.condition import c1, c2, cm
from repro.core.update import Update
from repro.displayers.ad1 import AD1
from repro.simulation.failures import CrashSchedule
from repro.simulation.kernel import Kernel
from repro.simulation.network import FixedDelay, ReliableLink


class TestDataMonitor:
    def test_consecutive_seqnos_from_one(self):
        kernel = Kernel()
        dm = DataMonitor(kernel, "x", [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        dm.start()
        kernel.run()
        assert [u.seqno for u in dm.sent] == [1, 2, 3]

    def test_values_snapshot(self):
        kernel = Kernel()
        dm = DataMonitor(kernel, "x", [(0.0, 2900.0), (1.0, 3100.0)])
        dm.start()
        kernel.run()
        assert [u.value for u in dm.sent] == [2900.0, 3100.0]

    def test_broadcast_to_all_links(self):
        kernel = Kernel()
        received1, received2 = [], []
        dm = DataMonitor(kernel, "x", [(0.0, 1.0)])
        dm.attach(ReliableLink(kernel, received1.append, FixedDelay(1.0), random.Random(0)))
        dm.attach(ReliableLink(kernel, received2.append, FixedDelay(2.0), random.Random(1)))
        dm.start()
        kernel.run()
        assert len(received1) == len(received2) == 1
        assert received1[0] == received2[0]

    def test_sent_log_records_times(self):
        kernel = Kernel()
        dm = DataMonitor(kernel, "x", [(5.0, 1.0), (7.0, 2.0)])
        dm.start()
        kernel.run()
        assert [t for t, _ in dm.sent_log] == [5.0, 7.0]

    def test_unsorted_readings_rejected(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            DataMonitor(kernel, "x", [(2.0, 1.0), (1.0, 2.0)])

    def test_dm_does_not_receive(self):
        kernel = Kernel()
        dm = DataMonitor(kernel, "x", [])
        with pytest.raises(RuntimeError):
            dm.receive("anything")


class TestCENode:
    def test_generates_and_sends_alerts(self):
        kernel = Kernel()
        received = []
        ce = CENode(kernel, "CE1", c1())
        ce.connect_ad(ReliableLink(kernel, received.append, FixedDelay(1.0), random.Random(0)))
        ce.receive(Update("x", 1, 3100.0))
        kernel.run()
        assert len(received) == 1
        assert received[0].source == "CE1"

    def test_no_alert_no_send(self):
        kernel = Kernel()
        received = []
        ce = CENode(kernel, "CE1", c1())
        ce.connect_ad(ReliableLink(kernel, received.append, FixedDelay(1.0), random.Random(0)))
        ce.receive(Update("x", 1, 2000.0))
        kernel.run()
        assert received == []

    def test_crash_window_misses_updates(self):
        kernel = Kernel()
        ce = CENode(kernel, "CE1", c1(), CrashSchedule(((5.0, 15.0),)))
        kernel.schedule_at(10.0, lambda: ce.receive(Update("x", 1, 3100.0)))
        kernel.run()
        assert ce.received == ()
        assert ce.missed_while_down == 1

    def test_recovers_after_window(self):
        kernel = Kernel()
        ce = CENode(kernel, "CE1", c1(), CrashSchedule(((5.0, 15.0),)))
        kernel.schedule_at(20.0, lambda: ce.receive(Update("x", 1, 3100.0)))
        kernel.run()
        assert len(ce.received) == 1

    def test_rejects_non_update_messages(self):
        kernel = Kernel()
        ce = CENode(kernel, "CE1", c1())
        with pytest.raises(TypeError):
            ce.receive("not an update")


class TestADNode:
    def test_records_arrivals_and_displays(self):
        kernel = Kernel()
        ad = ADNode(kernel, "AD", AD1())
        ce = CENode(kernel, "CE1", c1())
        ce.connect_ad(ReliableLink(kernel, ad.receive, FixedDelay(1.0), random.Random(0)))
        ce.receive(Update("x", 1, 3100.0))
        ce.receive(Update("x", 2, 3200.0))
        kernel.run()
        assert len(ad.arrivals) == 2
        assert len(ad.displayed) == 2
        assert ad.shown == (0, 1)  # nothing filtered

    def test_rejects_non_alert_messages(self):
        kernel = Kernel()
        ad = ADNode(kernel, "AD", AD1())
        with pytest.raises(TypeError):
            ad.receive(Update("x", 1))


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(replication=0)
        with pytest.raises(ValueError):
            SystemConfig(front_loss=1.5)

    def test_defaults(self):
        config = SystemConfig()
        assert config.replication == 2
        assert config.ad_algorithm == "AD-1"


class TestMonitoringSystem:
    WORKLOAD = {"x": [(float(t) * 10, 2900.0 + 150 * t) for t in range(5)]}

    def test_workload_must_cover_variables(self):
        with pytest.raises(ValueError):
            MonitoringSystem(cm(), {"x": []}, SystemConfig())

    def test_lossless_run_everything_delivered(self):
        config = SystemConfig(replication=2, front_loss=0.0)
        result = run_system(c1(), self.WORKLOAD, config, seed=1)
        assert len(result.sent["x"]) == 5
        assert all(len(t) == 5 for t in result.received)

    def test_replication_count(self):
        config = SystemConfig(replication=3)
        result = run_system(c1(), self.WORKLOAD, config, seed=1)
        assert len(result.received) == 3
        assert len(result.ce_alerts) == 3

    def test_deterministic_given_seed(self):
        config = SystemConfig(replication=2, front_loss=0.3)
        r1 = run_system(c1(), self.WORKLOAD, config, seed=99)
        r2 = run_system(c1(), self.WORKLOAD, config, seed=99)
        assert r1.received == r2.received
        assert r1.displayed == r2.displayed
        assert r1.ad_arrivals == r2.ad_arrivals

    def test_different_seeds_differ_under_loss(self):
        config = SystemConfig(replication=2, front_loss=0.5)
        workload = {"x": [(float(t) * 10, 3100.0) for t in range(30)]}
        r1 = run_system(c1(), workload, config, seed=1)
        r2 = run_system(c1(), workload, config, seed=2)
        assert r1.received != r2.received  # overwhelmingly likely

    def test_received_are_subsequences_of_sent(self):
        from repro.core.sequences import is_subsequence

        config = SystemConfig(replication=2, front_loss=0.4)
        workload = {"x": [(float(t) * 10, 3100.0) for t in range(20)]}
        result = run_system(c1(), workload, config, seed=5)
        sent = list(result.sent["x"])
        for trace in result.received:
            assert is_subsequence(list(trace), sent)

    def test_arrivals_union_of_ce_alerts(self):
        config = SystemConfig(replication=2, front_loss=0.2)
        workload = {"x": [(float(t) * 10, 3100.0) for t in range(10)]}
        result = run_system(c1(), workload, config, seed=3)
        generated = sorted(a.identity() for a in result.all_generated)
        arrived = sorted(a.identity() for a in result.ad_arrivals)
        assert generated == arrived  # back links are lossless

    def test_displayed_plus_filtered_equals_arrivals(self):
        config = SystemConfig(replication=2, front_loss=0.2)
        workload = {"x": [(float(t) * 10, 3100.0) for t in range(10)]}
        result = run_system(c1(), workload, config, seed=3)
        assert len(result.displayed) + len(result.filtered) == len(result.ad_arrivals)

    def test_custom_algorithm_instance(self):
        config = SystemConfig(replication=2)
        result = run_system(c1(), self.WORKLOAD, config, seed=1, algorithm=AD1())
        assert result is not None

    def test_crash_schedule_reduces_reception(self):
        horizon_crash = {0: CrashSchedule(((0.0, 1000.0),))}
        config = SystemConfig(replication=2, crash_schedules=horizon_crash)
        result = run_system(c1(), self.WORKLOAD, config, seed=1)
        assert len(result.received[0]) == 0
        assert result.missed_while_down[0] == 5
        assert len(result.received[1]) == 5

    def test_evaluate_properties_integration(self):
        config = SystemConfig(replication=2, front_loss=0.0)
        result = run_system(c1(), self.WORKLOAD, config, seed=1)
        report = result.evaluate_properties()
        assert report.complete
        assert report.consistent

    def test_multi_variable_system(self):
        workload = {
            "x": [(float(t) * 10, 1000.0 + 50 * t) for t in range(5)],
            "y": [(float(t) * 10, 1200.0) for t in range(5)],
        }
        config = SystemConfig(replication=2, ad_algorithm="AD-5")
        result = run_system(cm(), workload, config, seed=2)
        assert set(result.sent) == {"x", "y"}
