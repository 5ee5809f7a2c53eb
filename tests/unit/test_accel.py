"""Unit tests for :mod:`repro.accel`: summary statistics, collector scope."""

import gc
import statistics
import weakref

import pytest

from repro import accel
from tests.conftest import Knot, collections_started

VALUES = [3.25, 1.5, 9.75, 4.5, 2.0, 8.5, 5.125]


def test_mean_matches_statistics():
    assert accel.mean(VALUES) == pytest.approx(statistics.fmean(VALUES))
    with pytest.raises(ValueError):
        accel.mean([])


def test_median_matches_statistics():
    assert accel.percentiles(VALUES, [50]) == [
        pytest.approx(statistics.median(VALUES))
    ]
    assert accel.percentiles([1.0, 2.0], [50]) == [pytest.approx(1.5)]


def test_percentile_linear_interpolation():
    # Linear interpolation on [10, 20, 30, 40]: rank = q/100 * 3.
    data = [40.0, 10.0, 30.0, 20.0]
    assert accel.percentiles(data, [0, 100, 50, 25, 95]) == [
        10.0,
        40.0,
        pytest.approx(25.0),
        pytest.approx(17.5),
        pytest.approx(38.5),
    ]
    assert accel.percentiles([7.0], [95]) == [7.0]
    assert accel.percentiles(data, []) == []


def test_percentile_matches_the_numpy_default_on_literals():
    # float(numpy.percentile(VALUES, q)), recorded once; exact equality,
    # all seven ranks from one call.
    expected = {
        0: 1.5,
        13.7: 1.911,
        25: 2.625,
        50: 4.5,
        77.3: 7.27825,
        95: 9.375,
        100: 9.75,
    }
    assert accel.percentiles(VALUES, expected) == list(expected.values())


def test_percentiles_sort_once(monkeypatch):
    import builtins

    sorts = []
    real = builtins.sorted

    def counted(*args, **kwargs):
        sorts.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "sorted", counted)
    assert accel.percentiles(VALUES, [50, 99, 100]) == [
        4.5, pytest.approx(9.675), 9.75
    ]
    assert len(sorts) == 1


def test_percentile_validation():
    with pytest.raises(ValueError):
        accel.percentiles([], [50])
    with pytest.raises(ValueError):
        accel.percentiles(VALUES, [50, 101])


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


# -- collector_paused ---------------------------------------------------------

@pytest.mark.parametrize("before", [True, False])
def test_collector_paused_restores_the_callers_state(before, collector_restored):
    (gc.enable if before else gc.disable)()
    with accel.collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() is before
    with pytest.raises(KeyError):
        with accel.collector_paused():
            raise KeyError("inside")
    assert gc.isenabled() is before


def test_collector_paused_nests(collector_restored):
    gc.enable()
    with accel.collector_paused():
        with accel.collector_paused():
            assert not gc.isenabled()
        # The inner scope found it off and leaves it off.
        assert not gc.isenabled()
    assert gc.isenabled()


def test_collector_paused_defers_cycles_it_does_not_leak_them(collector_restored):
    gc.enable()
    with collections_started() as started:
        with accel.collector_paused():
            knot = weakref.ref(Knot())
            churn = [[] for _ in range(5_000)]  # 7 young generations' worth
            assert not started and knot() is not None
        del churn
        churn = [[] for _ in range(5_000)]
    # Back on, the ordinary young collection finds it.
    assert started and knot() is None
