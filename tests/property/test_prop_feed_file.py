"""A feed file is the byte stream ``repro serve`` reads, read by its rules.

Property: the whole file round-trips (``loads_feed(bytes) == feed``) on
single-variable, multi-variable, chaos and membership specs, and every
strict byte prefix of it is a named ``FeedSchemaError`` or
``FrameError`` — never a ``struct.error``, ``IndexError``, ``KeyError``
or ``UnicodeDecodeError`` of the code that tripped on it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.wire import FrameError
from repro.engine.spec import TrialSpec
from repro.faults import DEFAULT_CHAOS_PROFILE
from repro.faults.plan import FaultProfile
from repro.membership import MembershipConfig
from repro.service.feed import (
    FeedSchemaError,
    encode_message,
    feed_messages,
    loads_feed,
    record_feed,
)

KINDS = {
    "single": dict(matrix="single", row="aggressive"),
    "multi": dict(matrix="multi", row="aggressive"),
    "chaos": dict(
        matrix="single", row="aggressive",
        faults=DEFAULT_CHAOS_PROFILE.scaled(1.5),
    ),
    "membership": dict(
        matrix="single", row="aggressive",
        faults=FaultProfile(ce_crash_rate=0.01, ce_mean_repair=40.0),
        membership=MembershipConfig(),
    ),
}


@settings(max_examples=24, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    # Every one of them runs on both matrices.
    algorithm=st.sampled_from(["AD-1", "AD-5", "AD-6", "adaptive"]),
    seed=st.integers(0, 2**16),
    n_updates=st.integers(1, 16),
    replication=st.integers(1, 3),
)
def test_a_file_round_trips_and_every_prefix_is_a_named_error(
    kind, algorithm, seed, n_updates, replication
):
    spec = TrialSpec(
        algorithm=algorithm, seed=seed, n_updates=n_updates,
        replication=replication, **KINDS[kind],
    )
    feed = record_feed(spec)
    data = b"".join(map(encode_message, feed_messages(feed)))
    assert loads_feed(data) == feed
    for cut in range(len(data)):
        try:
            loads_feed(data[:cut])
        except (FeedSchemaError, FrameError):
            continue
        raise AssertionError(f"a {cut}-byte prefix of {len(data)} loaded")
