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


def test_latency_summary_of_a_quality():
    from repro.quality.metrics import AlertQuality

    # Three expected events, two detected 4 and 8 time units after their
    # triggers (the alert_quality view of 0→4, 1→9 and a miss).
    quality = AlertQuality(
        expected=3, detected=2, duplicates=0, false_alerts=0,
        displayed=2, filtered=0, arrivals=2, latency_samples=(4.0, 8.0),
    )
    assert accel.mean(quality.latency_samples) == pytest.approx(6.0)
    assert accel.percentiles(quality.latency_samples, (50.0, 95)) == [
        pytest.approx(6.0), pytest.approx(7.8)
    ]
    assert quality.missed / quality.expected == pytest.approx(1 / 3)


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


def test_collector_paused_scopes_may_overlap_without_nesting(collector_restored):
    # Two scopes on different tasks or threads: A opens, B opens, A ends
    # first.  The collector stays off until the last open scope ends.
    gc.enable()
    a = accel.collector_paused()
    b = accel.collector_paused()
    a.__enter__()
    b.__enter__()
    a.__exit__(None, None, None)
    assert not gc.isenabled()
    b.__exit__(None, None, None)
    assert gc.isenabled()


def test_collector_paused_scopes_on_many_threads(collector_restored):
    # More threads than cores, switching often: every scope sees the
    # collector off, and once all have ended it is back on — a lost
    # update to the shared scope count would leave it off for good.
    import sys
    import threading

    gc.enable()
    seen_on = []
    start = threading.Barrier(4)

    def churn():
        start.wait(timeout=60)
        for _ in range(10_000):
            with accel.collector_paused():
                for _ in range(20):  # each pass a point to switch threads
                    pass
                if gc.isenabled():
                    seen_on.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not seen_on
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
