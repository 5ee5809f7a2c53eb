"""Unit tests for the optional-acceleration shims (:mod:`repro.accel`).

numpy is an optional extra; both code paths must agree.  The fallback
path is forced by flipping ``HAVE_NUMPY`` (the helpers branch on it at
call time), so these tests exercise it even in environments where numpy
is installed — the converse (numpy path in a numpy-less environment) is
vacuously absent.
"""

import statistics

import pytest

from repro import accel


@pytest.fixture
def fallback(monkeypatch):
    monkeypatch.setattr(accel, "HAVE_NUMPY", False)


VALUES = [3.25, 1.5, 9.75, 4.5, 2.0, 8.5, 5.125]


def test_mean_matches_statistics(fallback):
    assert accel.mean(VALUES) == pytest.approx(statistics.fmean(VALUES))
    with pytest.raises(ValueError):
        accel.mean([])


def test_median_matches_statistics(fallback):
    assert accel.median(VALUES) == pytest.approx(statistics.median(VALUES))
    assert accel.median([1.0, 2.0]) == pytest.approx(1.5)


def test_percentile_linear_interpolation(fallback):
    # numpy's default method on [10, 20, 30, 40]: rank = q/100 * 3.
    data = [40.0, 10.0, 30.0, 20.0]
    assert accel.percentile(data, 0) == 10.0
    assert accel.percentile(data, 100) == 40.0
    assert accel.percentile(data, 50) == pytest.approx(25.0)
    assert accel.percentile(data, 25) == pytest.approx(17.5)
    assert accel.percentile(data, 95) == pytest.approx(38.5)
    assert accel.percentile([7.0], 95) == 7.0


def test_percentile_validation(fallback):
    with pytest.raises(ValueError):
        accel.percentile([], 50)
    with pytest.raises(ValueError):
        accel.percentile(VALUES, 101)


@pytest.mark.skipif(not accel.HAVE_NUMPY, reason="numpy not installed")
def test_fallback_agrees_with_numpy_bit_for_bit(monkeypatch):
    import numpy as np

    numpy_results = [
        (q, float(np.percentile(np.asarray(VALUES), q)))
        for q in (0, 13.7, 25, 50, 77.3, 95, 100)
    ]
    monkeypatch.setattr(accel, "HAVE_NUMPY", False)
    for q, expected in numpy_results:
        assert accel.percentile(VALUES, q) == expected
    assert accel.mean(VALUES) == float(np.mean(VALUES))
    assert accel.median(VALUES) == float(np.median(VALUES))


def test_as_float_array_is_indexable(fallback):
    container = accel.as_float_array([1.0, 2.5])
    assert container[1] == 2.5
    assert len(container) == 2


def test_latency_stats_on_the_fallback(fallback):
    """The one in-tree numpy consumer must work without numpy."""
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
