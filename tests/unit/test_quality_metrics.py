"""Unit tests for the alert-quality metrics layer: ground truth,
display-time recovery, and the event-keyed classification."""

from dataclasses import replace

import pytest

from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1, c2
from repro.quality.metrics import (
    AlertQuality,
    _display_times,
    alert_quality,
    ground_truth_events,
)

WORKLOAD = {"x": [(float(t) * 10, 3100.0 if t % 2 else 2900.0) for t in range(10)]}


def run(condition=None, **config_kwargs):
    defaults = dict(replication=2, front_loss=0.0)
    defaults.update(config_kwargs)
    return run_system(
        condition or c1(), WORKLOAD, SystemConfig(**defaults), seed=1
    )


class TestGroundTruth:
    def test_perfect_run_expected_events(self):
        events = ground_truth_events(run())
        assert len(events) == 5  # alternating above-threshold readings
        # Injective keys: one per triggering seqno, stamped in order.
        heads = sorted(key[1][0] for key in events)
        assert heads == [2, 4, 6, 8, 10]
        times = [events[key] for key in sorted(events, key=events.get)]
        assert times == sorted(times)

    def test_ground_truth_ignores_front_loss(self):
        # The ideal system reads the broadcast log, not the lossy links.
        assert len(ground_truth_events(run(front_loss=0.7))) == 5


class TestDisplayedWithTimes:
    def test_times_align_with_arrivals(self):
        result = run()
        times = _display_times(result)
        assert len(times) == len(result.displayed)
        # Each displayed alert is paired with one of its own arrival
        # stamps, and the pairing preserves arrival order.
        arrivals = list(zip(result.ad_arrivals, result.ad_arrival_times))
        assert all(pair in arrivals for pair in zip(result.displayed, times))
        assert times == sorted(times)

    def test_non_subsequence_is_rejected(self):
        result = run()
        # Reversing a multi-element displayed sequence breaks the
        # subsequence property against the arrival order.
        assert len(result.displayed) > 1
        broken = replace(
            result,
            displayed_arrivals=tuple(reversed(result.displayed_arrivals)),
        )
        with pytest.raises(ValueError, match="not a subsequence"):
            _display_times(broken)


class TestAlertQuality:
    def test_perfect_run_is_perfect(self):
        quality = alert_quality(run())
        assert quality.expected == 5
        assert quality.detected == 5
        assert quality.duplicates == 0
        assert quality.false_alerts == 0
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.missed == 0
        assert quality.latency_samples
        assert all(sample >= 0.0 for sample in quality.latency_samples)

    def test_pass_through_counts_replica_echoes_as_duplicates(self):
        quality = alert_quality(run(ad_algorithm="pass"))
        # Lossless: CE2 re-reports every event; pass displays both copies.
        assert quality.detected == 5
        assert quality.duplicates == 5
        assert quality.displayed == 10
        assert quality.precision == pytest.approx(0.5)
        assert quality.recall == 1.0

    def test_total_loss_detects_nothing(self):
        quality = alert_quality(run(replication=1, front_loss=1.0))
        assert quality.expected == 5
        assert quality.detected == 0
        assert quality.displayed == 0
        assert quality.recall == 0.0
        assert quality.missed == quality.expected
        assert quality.precision == 1.0  # vacuous: nothing displayed
        assert quality.latency_samples == ()

    def test_classification_is_exhaustive(self):
        # Lossy historical condition: near-duplicates and hallucinated
        # histories are possible; every displayed alert must land in
        # exactly one class and conservation must hold.
        quality = alert_quality(run(condition=c2(), front_loss=0.4))
        assert (
            quality.detected + quality.duplicates + quality.false_alerts
            == quality.displayed
        )
        assert quality.displayed + quality.filtered == quality.arrivals
        assert 0.0 <= quality.precision <= 1.0
        assert 0.0 <= quality.recall <= 1.0
        assert len(quality.latency_samples) == quality.detected

    def test_as_dict_round_trips_the_counts(self):
        quality = alert_quality(run())
        digest = quality.as_dict()
        assert digest["expected"] == quality.expected
        assert digest["detected"] == quality.detected
        assert digest["missed"] == quality.missed
        assert digest["precision"] == quality.precision
        assert digest["recall"] == quality.recall
        assert digest["latency_samples"] == list(quality.latency_samples)

    def test_vacuous_rates(self):
        empty = AlertQuality(
            expected=0, detected=0, duplicates=0, false_alerts=0,
            displayed=0, filtered=0, arrivals=0, latency_samples=(),
        )
        assert empty.precision == 1.0
        assert empty.recall == 1.0
