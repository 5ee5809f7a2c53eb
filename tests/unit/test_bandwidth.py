"""Unit tests for back-link bandwidth accounting."""

import pytest

from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1, c2
from repro.core.wire import AlertEncoding
from tests.conftest import back_link_bytes

WORKLOAD = {"x": [(t * 10.0, 3100.0) for t in range(10)]}


class TestBackLinkBytes:
    def test_defaults_to_algorithm_minimum(self):
        config = SystemConfig(replication=2, front_loss=0.0, ad_algorithm="AD-1")
        run = run_system(c1(), WORKLOAD, config, seed=1)
        # AD-1's minimum is CHECKSUM: 16 bytes header + 8 digest per alert.
        assert back_link_bytes(run) == back_link_bytes(
            run, AlertEncoding.CHECKSUM
        )

    def test_full_costs_more_than_checksum(self):
        config = SystemConfig(replication=2, front_loss=0.0)
        run = run_system(c2(), WORKLOAD, config, seed=1)
        full = back_link_bytes(run, AlertEncoding.FULL)
        checksum = back_link_bytes(run, AlertEncoding.CHECKSUM)
        if run.all_generated:
            assert full > checksum

    def test_scales_with_alert_count(self):
        config = SystemConfig(replication=3, front_loss=0.0)
        run = run_system(c1(), WORKLOAD, config, seed=1)
        per_alert = back_link_bytes(run, AlertEncoding.CHECKSUM) / len(
            run.all_generated
        )
        assert per_alert == pytest.approx(16.0)  # 8 condname + 8 digest

    def test_zero_alerts_zero_bytes(self):
        cold = {"x": [(0.0, 2000.0)]}
        config = SystemConfig(replication=2, front_loss=0.0)
        run = run_system(c1(), cold, config, seed=1)
        assert back_link_bytes(run) == 0
