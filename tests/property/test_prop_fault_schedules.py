"""The indexed fault schedules and the one-sweep detector against the
definitions they replaced.

``CrashSchedule`` / ``DelaySpikeSchedule`` answer by bisecting an end
array built once, ``NodeView.believed_down`` by bisecting its suspect
intervals, and ``node_view`` derives the detector's view from the windows and the
heartbeat grid arithmetic.  The linear scans those replaced are kept
here, verbatim, as the oracles (and the one-cursor heartbeat sweep in
``tests/conftest.py``): every lookup must agree with them on
window lists full of the awkward cases — zero-length windows, adjacent
windows, windows shorter than the recovery epsilon, queries exactly on
endpoints and at ``end + epsilon``.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.model import DelaySpikeSchedule
from repro.membership import MembershipConfig
from repro.membership.detector import NodeView, node_view
from repro.simulation.failures import CrashSchedule
from tests.conftest import gap_suspects, sweep_node_view

EPSILON = 1e-6

#: Endpoints on a coarse grid so that equal, touching and repeated
#: endpoints are common, nudged now and then by less than the recovery
#: epsilon (a window the ``end + epsilon`` chain steps over).
endpoints = st.builds(
    lambda ticks, nudge: ticks * 0.5 + nudge,
    st.integers(0, 40),
    st.sampled_from((0.0, 0.0, 0.0, 4e-7, 1e-6, 0.1)),
)


@st.composite
def window_lists(draw, max_windows=6):
    points = sorted(draw(st.lists(endpoints, max_size=2 * max_windows)))
    return tuple(zip(points[0::2], points[1::2]))


@st.composite
def windows_and_times(draw):
    windows = draw(window_lists())
    near = [
        point + offset
        for window in windows
        for point in window
        for offset in (0.0, EPSILON, -EPSILON, 4e-7, 0.25)
    ]
    anywhere = st.floats(-1.0, 25.0, allow_nan=False)
    times = draw(st.lists(
        st.sampled_from(near) | anywhere if near else anywhere,
        min_size=1, max_size=12,
    ))
    return windows, times


# -- the deleted scans ---------------------------------------------------------

def linear_is_up(windows, time):
    for start, end in windows:
        if start <= time <= end:
            return False
        if start > time:
            break
    return True


def linear_next_up_time(windows, time, epsilon=EPSILON):
    current = time
    for start, end in windows:
        if start <= current <= end:
            current = end + epsilon
        elif start > current:
            break
    return current


def linear_factor_at(windows, factor, time):
    for start, end in windows:
        if start <= time <= end:
            return factor
        if start > time:
            break
    return 1.0


def linear_believed_down(suspects, time):
    for suspected, restored in suspects:
        if suspected <= time < restored:
            return True
        if suspected > time:
            break
    return False


def per_heartbeat_node_view(name, windows, config, horizon):
    """``node_view`` as it was: one ``is_up`` probe per heartbeat and a
    scan of the arrivals per crash window."""
    interval = config.heartbeat_interval
    delay = config.heartbeat_delay
    window = config.suspicion_window
    heartbeats = []
    k = 0
    t = 0.0
    while t <= horizon:
        if linear_is_up(windows, t):
            heartbeats.append(t)
        k += 1
        t = k * interval
    arrivals = [t + delay for t in heartbeats]
    detections = []
    missed = 0
    for start, end in windows:
        if start > horizon:
            continue
        last_arrival = 0.0
        for arrival in arrivals:
            if arrival < start + delay:
                last_arrival = arrival
            else:
                break
        suspect_time = last_arrival + window
        first_back = next((a for a in arrivals if a >= end), None)
        restored = first_back if first_back is not None else horizon
        if suspect_time < restored:
            detections.append((start, suspect_time))
        else:
            missed += 1
    return NodeView(
        name=name,
        heartbeats=tuple(heartbeats),
        arrivals=tuple(arrivals),
        suspects=gap_suspects(arrivals, window, horizon),
        detections=tuple(detections),
        missed_detections=missed,
    )


# -- differentials -------------------------------------------------------------

@given(windows_and_times())
def test_crash_schedule_lookups_match_the_linear_scans(case):
    windows, times = case
    schedule = CrashSchedule(windows)
    for time in times:
        assert schedule.is_up(time) == linear_is_up(windows, time)
        assert schedule.next_up_time(time) == linear_next_up_time(windows, time)
        assert schedule.next_up_time(time, 0.5) == linear_next_up_time(
            windows, time, 0.5
        )


@given(windows_and_times(), st.sampled_from((1.0, 3.0)))
def test_spike_factor_matches_the_linear_scan(case, factor):
    windows, times = case
    spikes = DelaySpikeSchedule(windows, factor)
    for time in times:
        assert spikes.factor_at(time) == linear_factor_at(windows, factor, time)


#: Patient through impatient detectors: ``suspicion_window`` from 0
#: (every gap is a silence) past the longest crash the grid can hold.
detectors = st.builds(
    MembershipConfig,
    heartbeat_interval=st.sampled_from((0.5, 2.5, 5.0)),
    heartbeat_delay=st.sampled_from((0.0, 0.5, 3.0)),
    detection_timeout=st.sampled_from((0.0, 0.25, 1.0, 4.0, 12.0)),
    suspicion_threshold=st.integers(1, 3),
)


@st.composite
def detector_cases(draw):
    windows = draw(window_lists())
    inside = [(start + end) / 2 for start, end in windows]
    edges = [point for window in windows for point in window]
    horizon = draw(
        st.sampled_from(inside + edges) | st.floats(0.0, 30.0, allow_nan=False)
        if windows else st.floats(0.0, 30.0, allow_nan=False)
    )
    return windows, draw(detectors), horizon


@given(detector_cases())
@settings(max_examples=300)
def test_one_sweep_node_view_matches_the_per_heartbeat_definition(case):
    windows, config, horizon = case
    view = node_view("CE1", CrashSchedule(windows), config, horizon)
    assert view == per_heartbeat_node_view("CE1", windows, config, horizon)
    probes = [point + offset for span in view.suspects for point in span
              for offset in (0.0, -EPSILON, EPSILON)] + [0.0, horizon]
    for time in probes:
        assert view.believed_down(time) == linear_believed_down(view.suspects, time)


#: Intervals whose grid multiples round (0.1, 1/3) as well as exact ones.
intervals = st.sampled_from((0.1, 0.3, 1.0 / 3.0, 0.5, 2.5, 5.0, 7.0))


@st.composite
def analytic_detector_cases(draw):
    """A detector and crash windows placed where the analytic view can
    slip: on grid points and a rounding error either side of them,
    back to back, touching or passing the horizon — with suspicion
    windows below, at and above the heartbeat interval."""
    interval = draw(intervals)
    config = MembershipConfig(
        heartbeat_interval=interval,
        heartbeat_delay=draw(st.sampled_from((0.0, 0.1, 0.5, 3.0))),
        detection_timeout=draw(st.sampled_from(
            (0.0, interval / 3, interval / 2, interval, 1.5 * interval, 4.0)
        )),
        suspicion_threshold=draw(st.integers(1, 3)),
    )
    horizon = draw(
        st.integers(0, 400).map(lambda k: k * interval)
        | st.floats(0.0, 2100.0, allow_nan=False)
    )
    on_grid = st.builds(
        lambda k, nudge: max(0.0, k * interval + nudge),
        st.integers(0, int(horizon / interval) + 3),
        st.sampled_from((0.0, 0.0, 1e-12, -1e-12, interval / 2)),
    )
    anchors = (
        on_grid
        | st.sampled_from((horizon, horizon + 1e-9, horizon + interval))
        | st.floats(0.0, horizon + 2 * interval, allow_nan=False)
    )
    points = sorted(draw(st.lists(anchors, max_size=12)))
    windows = list(zip(points[0::2], points[1::2]))
    if draw(st.booleans()):
        # Back to back: every window starts where the previous one ends.
        for i in range(1, len(windows)):
            windows[i] = (windows[i - 1][1], windows[i][1])
    return tuple(windows), config, horizon


@given(analytic_detector_cases())
@settings(max_examples=400, deadline=None)
def test_node_view_derives_every_field_of_the_heartbeat_sweep(case):
    windows, config, horizon = case
    schedule = CrashSchedule(windows)
    view = node_view("CE1", schedule, config, horizon)
    oracle = sweep_node_view("CE1", schedule, config, horizon)
    assert view.name == oracle.name
    assert len(view.heartbeats) == len(oracle.heartbeats)
    assert tuple(view.heartbeats) == oracle.heartbeats
    assert len(view.arrivals) == len(oracle.arrivals)
    assert tuple(view.arrivals) == oracle.arrivals
    assert [view.arrivals[i] for i in range(-len(view.arrivals), 0)] == list(
        oracle.arrivals
    )
    assert view.suspects == oracle.suspects
    assert view.detections == oracle.detections
    assert view.missed_detections == oracle.missed_detections
    assert view == oracle
