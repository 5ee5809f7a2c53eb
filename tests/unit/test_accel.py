"""Unit tests for the summary statistics in :mod:`repro.accel`."""

import statistics

import pytest

from repro import accel

VALUES = [3.25, 1.5, 9.75, 4.5, 2.0, 8.5, 5.125]


def test_mean_matches_statistics():
    assert accel.mean(VALUES) == pytest.approx(statistics.fmean(VALUES))
    with pytest.raises(ValueError):
        accel.mean([])


def test_median_matches_statistics():
    assert accel.median(VALUES) == pytest.approx(statistics.median(VALUES))
    assert accel.median([1.0, 2.0]) == pytest.approx(1.5)


def test_percentile_linear_interpolation():
    # Linear interpolation on [10, 20, 30, 40]: rank = q/100 * 3.
    data = [40.0, 10.0, 30.0, 20.0]
    assert accel.percentile(data, 0) == 10.0
    assert accel.percentile(data, 100) == 40.0
    assert accel.percentile(data, 50) == pytest.approx(25.0)
    assert accel.percentile(data, 25) == pytest.approx(17.5)
    assert accel.percentile(data, 95) == pytest.approx(38.5)
    assert accel.percentile([7.0], 95) == 7.0


def test_percentile_matches_the_numpy_default_on_literals():
    # float(numpy.percentile(VALUES, q)), recorded once; exact equality.
    expected = {
        0: 1.5,
        13.7: 1.911,
        25: 2.625,
        50: 4.5,
        77.3: 7.27825,
        95: 9.375,
        100: 9.75,
    }
    for q, value in expected.items():
        assert accel.percentile(VALUES, q) == value


def test_percentile_validation():
    with pytest.raises(ValueError):
        accel.percentile([], 50)
    with pytest.raises(ValueError):
        accel.percentile(VALUES, 101)


def test_latency_stats():
    from repro.analysis.latency import NotificationLatency, latency_stats

    stats = latency_stats(
        [
            NotificationLatency(("c", 1), 0.0, 4.0),
            NotificationLatency(("c", 2), 1.0, 9.0),
            NotificationLatency(("c", 3), 2.0, None),
        ]
    )
    assert stats.expected == 3
    assert stats.delivered == 2
    assert stats.mean == pytest.approx(6.0)
    assert stats.median == pytest.approx(6.0)
    assert stats.p95 == pytest.approx(7.8)
    assert stats.miss_fraction == pytest.approx(1 / 3)
