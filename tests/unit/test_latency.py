"""Unit tests for notification latency, read off ``alert_quality``."""

import pytest

from repro.accel import mean, percentiles
from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1
from repro.quality.metrics import AlertQuality, alert_quality, ground_truth_events
from repro.simulation.network import FixedDelay

WORKLOAD = {"x": [(t * 10.0, 3100.0 if t % 2 else 2900.0) for t in range(10)]}


class TestNotificationLatencies:
    def test_all_delivered_when_lossless(self):
        config = SystemConfig(replication=2, front_loss=0.0)
        quality = alert_quality(run_system(c1(), WORKLOAD, config, seed=1))
        assert quality.expected == 5
        assert quality.detected == 5
        assert len(quality.latency_samples) == 5

    def test_latency_is_front_plus_back_delay(self):
        config = SystemConfig(
            replication=1,
            front_loss=0.0,
            front_delay=FixedDelay(2.0),
            back_delay=FixedDelay(3.0),
        )
        quality = alert_quality(run_system(c1(), WORKLOAD, config, seed=1))
        assert len(quality.latency_samples) == 5
        for latency in quality.latency_samples:
            assert latency == pytest.approx(5.0)

    def test_replication_takes_the_faster_path(self):
        # Both CEs share delay models, so with 2 CEs the first display per
        # alert is the min of two draws: mean latency must not exceed the
        # 1-CE mean for the same seed stream statistics.
        def mean_latency(replication: int) -> float:
            totals = []
            for seed in range(25):
                config = SystemConfig(replication=replication, front_loss=0.0)
                run = run_system(c1(), WORKLOAD, config, seed=seed)
                totals.append(mean(alert_quality(run).latency_samples))
            return sum(totals) / len(totals)

        assert mean_latency(2) < mean_latency(1)

    def test_missed_alert_has_none_latency(self):
        config = SystemConfig(replication=1, front_loss=1.0)
        quality = alert_quality(run_system(c1(), WORKLOAD, config, seed=1))
        assert quality.expected == 5
        assert quality.missed == 5
        assert quality.latency_samples == ()

    def test_triggered_at_is_broadcast_time(self):
        config = SystemConfig(replication=1, front_loss=0.0)
        run = run_system(c1(), WORKLOAD, config, seed=1)
        # Alerts trigger on updates 2, 4, 6, 8, 10 -> broadcasts at
        # t = 10, 30, 50, 70, 90.
        assert list(ground_truth_events(run).values()) == [
            10.0, 30.0, 50.0, 70.0, 90.0,
        ]


def _quality(expected: int, samples: tuple[float, ...]) -> AlertQuality:
    detected = len(samples)
    return AlertQuality(
        expected=expected, detected=detected, duplicates=0, false_alerts=0,
        displayed=detected, filtered=0, arrivals=detected,
        latency_samples=samples,
    )


def _pooled(qualities: list[AlertQuality]) -> tuple[list[float], int, int]:
    """What ``benchmarks/bench_latency.py`` pools per point: every run's
    latency samples, and its expected and detected counts."""
    samples = [s for quality in qualities for s in quality.latency_samples]
    expected = sum(quality.expected for quality in qualities)
    detected = sum(quality.detected for quality in qualities)
    return samples, expected, detected


class TestPooledLatency:
    def test_aggregation(self):
        samples, expected, detected = _pooled(
            [_quality(2, (5.0,)), _quality(1, (15.0,)), _quality(0, ())]
        )
        assert expected == 3
        assert detected == 2
        assert mean(samples) == pytest.approx(10.0)
        assert percentiles(samples, [50]) == [pytest.approx(10.0)]
        assert 1.0 - detected / expected == pytest.approx(1 / 3)

    def test_nothing_detected_has_no_sample(self):
        samples, expected, detected = _pooled([_quality(1, ())])
        assert samples == []
        assert 1.0 - detected / expected == 1.0
        with pytest.raises(ValueError):
            mean(samples)

    def test_no_expected(self):
        quality = _quality(0, ())
        assert quality.missed == 0
        assert quality.recall == 1.0
