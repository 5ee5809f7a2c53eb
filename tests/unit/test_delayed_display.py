"""Unit tests for the §4.2 delayed-display alternative."""

import pytest

from repro.components.system import MonitoringSystem, SystemConfig
from repro.core.condition import c1
from repro.displayers.delayed import DelayedDisplayAD, attach_delayed_ad
from repro.props.orderedness import check_orderedness
from repro.simulation.kernel import Kernel
from tests.conftest import alert_deg1, keys_of


def deliver(ad, kernel, schedule):
    """Feed (time, alert) pairs through the kernel."""
    for time, alert in schedule:
        kernel.schedule_at(time, lambda a=alert: ad.receive(a))
    kernel.run()


class TestDelayedDisplayAD:
    def test_in_order_stream_displayed_promptly(self):
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=5.0)
        deliver(ad, kernel, [(0.0, alert_deg1(1)), (1.0, alert_deg1(2))])
        assert [a.seqno("x") for a in ad.displayed] == [1, 2]

    def test_straggler_within_timeout_is_reordered(self):
        # a2 arrives first; a1 arrives 1 unit later, inside the 5-unit
        # timeout: both display, in order — AD-2 would have dropped a1.
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=5.0)
        deliver(ad, kernel, [(0.0, alert_deg1(2)), (1.0, alert_deg1(1))])
        assert [a.seqno("x") for a in ad.displayed] == [1, 2]
        assert check_orderedness(keys_of(ad.displayed), ["x"])

    def test_straggler_after_timeout_causes_inversion(self):
        # a2's timeout fires at t=5; a1 arrives at t=8: unordered display,
        # exactly the failure mode the paper warns about.
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=5.0)
        deliver(ad, kernel, [(0.0, alert_deg1(2)), (8.0, alert_deg1(1))])
        kernel.run(until=20.0)
        ad.flush()
        assert [a.seqno("x") for a in ad.displayed] == [2, 1]
        assert not check_orderedness(keys_of(ad.displayed), ["x"])

    def test_nothing_dropped_except_duplicates(self):
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=2.0)
        alerts = [alert_deg1(3), alert_deg1(1), alert_deg1(3), alert_deg1(2)]
        deliver(ad, kernel, [(i * 0.5, a) for i, a in enumerate(alerts)])
        ad.flush()
        assert [a.seqno("x") for a in ad.displayed] == [1, 2, 3]
        assert ad.arrivals == 4

    def test_late_arrival_after_forced_display_still_shown(self):
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=2.0)
        alerts = [alert_deg1(3), alert_deg1(1), alert_deg1(2)]
        # Alert 2 arrives after 3's deadline fired: displayed, out of order
        # — delayed display trades orderedness for completeness.
        deliver(ad, kernel, [(0.0, alerts[0]), (1.0, alerts[1]), (3.0, alerts[2])])
        ad.flush()
        assert sorted(a.seqno("x") for a in ad.displayed) == [1, 2, 3]
        assert [a.seqno("x") for a in ad.displayed] == [1, 3, 2]

    def test_infinite_timeout_orders_everything_at_flush(self):
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=float("inf"))
        deliver(
            ad,
            kernel,
            [(0.0, alert_deg1(5)), (1.0, alert_deg1(2)), (2.0, alert_deg1(9))],
        )
        assert len(ad.displayed) <= 1  # held indefinitely
        ad.flush()
        assert [a.seqno("x") for a in ad.displayed] == [2, 5, 9]

    def test_zero_timeout_is_arrival_order(self):
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=0.0)
        deliver(ad, kernel, [(0.0, alert_deg1(2)), (3.0, alert_deg1(1))])
        assert [a.seqno("x") for a in ad.displayed] == [2, 1]

    def test_latency_accounting(self):
        kernel = Kernel()
        ad = DelayedDisplayAD(kernel, "x", timeout=4.0)
        deliver(ad, kernel, [(0.0, alert_deg1(2))])
        # Lone out-of-sequence alert waits its full timeout.
        assert ad.mean_added_latency() == pytest.approx(4.0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            DelayedDisplayAD(Kernel(), "x", timeout=-1.0)

    def test_rejects_non_alert(self):
        ad = DelayedDisplayAD(Kernel(), "x", timeout=1.0)
        with pytest.raises(TypeError):
            ad.receive("nope")


class TestAttachToSystem:
    WORKLOAD = {"x": [(t * 10.0, 3100.0) for t in range(12)]}

    def test_attach_and_run(self):
        config = SystemConfig(replication=2, front_loss=0.3)
        system = MonitoringSystem(c1(), self.WORKLOAD, config, seed=5)
        delayed = attach_delayed_ad(system, timeout=40.0)
        system.run()
        delayed.flush()
        assert len(delayed.displayed) > 0
        # The original ADNode was bypassed entirely.
        assert system.ad.arrivals == ()

    def test_large_timeout_displays_superset_of_ad2(self):
        from repro.components.system import run_system

        config = SystemConfig(replication=2, front_loss=0.3, ad_algorithm="AD-2")
        for seed in range(8):
            baseline = run_system(c1(), self.WORKLOAD, config, seed=seed)
            system = MonitoringSystem(c1(), self.WORKLOAD, config, seed=seed)
            delayed = attach_delayed_ad(system, timeout=100.0)
            system.run()
            delayed.flush()
            ad2_ids = {a.identity() for a in baseline.displayed}
            delayed_ids = {a.identity() for a in delayed.displayed}
            assert ad2_ids <= delayed_ids

    def test_multi_variable_rejected(self):
        from repro.core.condition import cm

        workload = {
            "x": [(0.0, 1000.0)],
            "y": [(0.0, 1200.0)],
        }
        system = MonitoringSystem(cm(), workload, SystemConfig(), seed=1)
        with pytest.raises(ValueError):
            attach_delayed_ad(system, timeout=1.0)
