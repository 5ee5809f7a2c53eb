"""Unit tests for RNG streams and crash schedules."""

import random

import pytest

from repro.simulation.failures import CrashSchedule, random_crash_schedule
from repro.simulation.rng import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(7).stream("link").random()
        b = RandomStreams(7).stream("link").random()
        assert a == b

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(2).stream("x").random()
        assert a != b

    def test_consuming_one_stream_does_not_shift_another(self):
        streams1 = RandomStreams(5)
        streams1.stream("noisy").random()
        value_after = streams1.stream("quiet").random()
        streams2 = RandomStreams(5)
        value_direct = streams2.stream("quiet").random()
        assert value_after == value_direct

    def test_spawn_changes_streams(self):
        parent = RandomStreams(5)
        child = parent.spawn("trial-1")
        assert child.stream("x").random() != parent.stream("x").random()

    def test_spawn_reproducible(self):
        a = RandomStreams(5).spawn("t").stream("x").random()
        b = RandomStreams(5).spawn("t").stream("x").random()
        assert a == b


class TestCrashSchedule:
    def test_never(self):
        schedule = CrashSchedule.never()
        assert schedule.is_up(0.0)
        assert schedule.is_up(1e9)
        assert schedule.total_downtime == 0.0

    def test_window_boundaries_inclusive(self):
        schedule = CrashSchedule(((10.0, 20.0),))
        assert schedule.is_up(9.999)
        assert not schedule.is_up(10.0)
        assert not schedule.is_up(15.0)
        assert not schedule.is_up(20.0)
        assert schedule.is_up(20.001)

    def test_multiple_windows(self):
        schedule = CrashSchedule(((1.0, 2.0), (5.0, 6.0)))
        assert not schedule.is_up(1.5)
        assert schedule.is_up(3.0)
        assert not schedule.is_up(5.5)

    def test_total_downtime(self):
        schedule = CrashSchedule(((1.0, 2.0), (5.0, 8.0)))
        assert schedule.total_downtime == 4.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule(((5.0, 1.0),))

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule(((1.0, 5.0), (3.0, 6.0)))


class TestNextUpTime:
    def test_up_now_returns_query_time(self):
        schedule = CrashSchedule(((10.0, 20.0),))
        assert schedule.next_up_time(5.0) == 5.0
        assert schedule.next_up_time(25.0) == 25.0

    def test_never_crashed_is_identity(self):
        assert CrashSchedule.never().next_up_time(123.4) == 123.4

    def test_window_starting_exactly_at_query_time(self):
        # Windows are closed: a window that *starts* at the query instant
        # already holds the node down.
        schedule = CrashSchedule(((10.0, 20.0),))
        assert schedule.next_up_time(10.0) == pytest.approx(20.0 + 1e-6)

    def test_window_ending_exactly_at_query_time(self):
        # ... and one that *ends* there still does (closed on both sides).
        schedule = CrashSchedule(((10.0, 20.0),))
        assert schedule.next_up_time(20.0) == pytest.approx(20.0 + 1e-6)

    def test_chains_across_adjacent_windows(self):
        # Recovery at end + epsilon lands inside the next window when the
        # windows are closer than epsilon apart: recovery chains through.
        schedule = CrashSchedule(((10.0, 20.0), (20.0 + 1e-7, 30.0)))
        assert schedule.next_up_time(15.0) == pytest.approx(30.0 + 1e-6)

    def test_gap_wider_than_epsilon_does_not_chain(self):
        schedule = CrashSchedule(((10.0, 20.0), (21.0, 30.0)))
        assert schedule.next_up_time(15.0) == pytest.approx(20.0 + 1e-6)

    def test_zero_width_window(self):
        # mean_repair=0 produces (t, t) windows; the node is down for the
        # single instant t and back up epsilon later.
        schedule = CrashSchedule(((10.0, 10.0),))
        assert schedule.next_up_time(10.0) == pytest.approx(10.0 + 1e-6)
        assert schedule.next_up_time(9.999) == 9.999

    def test_zero_width_windows_from_zero_mean_repair(self):
        schedule = random_crash_schedule(random.Random(2), 200.0, 0.05, 0.0)
        assert schedule.windows  # the rate guarantees some crashes
        assert all(start == end for start, end in schedule.windows)
        for start, _ in schedule.windows:
            assert schedule.next_up_time(start) == pytest.approx(start + 1e-6)

    def test_epsilon_recovery_is_deterministic(self):
        schedule = CrashSchedule(((10.0, 20.0), (40.0, 50.0)))
        times = [schedule.next_up_time(t) for t in (10.0, 15.0, 20.0)]
        assert times == [schedule.next_up_time(t) for t in (10.0, 15.0, 20.0)]
        assert len(set(times)) == 1

    def test_custom_epsilon(self):
        schedule = CrashSchedule(((10.0, 20.0),))
        assert schedule.next_up_time(15.0, epsilon=0.5) == 20.5


class TestCrashScheduleUnion:
    def test_disjoint_windows_concatenate(self):
        a = CrashSchedule(((1.0, 2.0),))
        b = CrashSchedule(((5.0, 6.0),))
        assert a.union(b).windows == ((1.0, 2.0), (5.0, 6.0))

    def test_overlapping_windows_coalesce(self):
        a = CrashSchedule(((1.0, 4.0),))
        b = CrashSchedule(((3.0, 6.0), (10.0, 11.0)))
        assert a.union(b).windows == ((1.0, 6.0), (10.0, 11.0))

    def test_touching_windows_coalesce(self):
        a = CrashSchedule(((1.0, 2.0),))
        b = CrashSchedule(((2.0, 3.0),))
        assert a.union(b).windows == ((1.0, 3.0),)

    def test_union_with_never_is_identity(self):
        a = CrashSchedule(((1.0, 2.0),))
        assert a.union(CrashSchedule.never()) == a
        assert CrashSchedule.never().union(a) == a

    def test_commutative(self):
        a = CrashSchedule(((1.0, 3.0), (8.0, 9.0)))
        b = CrashSchedule(((2.0, 5.0),))
        assert a.union(b) == b.union(a)


class TestRandomCrashSchedule:
    def test_zero_rate_never_crashes(self):
        schedule = random_crash_schedule(random.Random(0), 1000.0, 0.0, 10.0)
        assert schedule.windows == ()

    def test_windows_within_horizon(self):
        schedule = random_crash_schedule(random.Random(1), 100.0, 0.1, 5.0)
        for start, end in schedule.windows:
            assert 0.0 <= start <= end <= 100.0

    def test_reproducible(self):
        a = random_crash_schedule(random.Random(9), 500.0, 0.05, 20.0)
        b = random_crash_schedule(random.Random(9), 500.0, 0.05, 20.0)
        assert a == b

    def test_higher_rate_more_downtime(self):
        low = random_crash_schedule(random.Random(3), 10_000.0, 0.001, 10.0)
        high = random_crash_schedule(random.Random(3), 10_000.0, 0.05, 10.0)
        assert high.total_downtime > low.total_downtime

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            random_crash_schedule(random.Random(0), 10.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            random_crash_schedule(random.Random(0), 10.0, 1.0, -1.0)
