"""Membership knobs — the picklable carrier of the churn lifecycle.

A :class:`MembershipConfig` parameterizes the whole detect → suspect →
recover → catch-up pipeline: how often nodes heartbeat, how impatient
the (deliberately unreliable) failure detector is, and how a recovering
CE re-acquires the history it missed.  Like
:class:`~repro.faults.plan.FaultProfile` it is all scalars, so it rides
on :class:`~repro.engine.spec.TrialSpec` across process boundaries and
trace headers unchanged; each field is a :mod:`repro.knobs` kind, which
is what its validation and the shrinker's steps read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.knobs import DELAY, INTERVAL, SOURCE, THRESHOLD, KnobSet, knob

__all__ = ["CATCHUP_SOURCES", "MembershipConfig"]

#: Where a recovering CE replays its missed history H from, in order of
#: preference.  "peer-then-log" tries live peers first (a state-transfer
#: over the back-plane) and falls back to the append-only DM broadcast
#: log; "none" models restart *without* catch-up — the node rejoins with
#: a hole in its history (the pre-membership behaviour, made explicit).
CATCHUP_SOURCES = SOURCE.choices


@dataclass(frozen=True)
class MembershipConfig(KnobSet):
    """Failure-detector and crash-recovery parameters for one run.

    Defaults are tuned to the simulator's scale (readings every 10 time
    units, crash repairs with means of tens of units): heartbeats every
    5 units, suspicion after 2 missed timeouts, catch-up in 2 units.
    """

    #: Period of heartbeat emission from every CE and the AD.
    heartbeat_interval: float = knob(5.0, INTERVAL)
    #: Fixed heartbeat propagation delay (registration at time 0).
    heartbeat_delay: float = knob(0.5, DELAY)
    #: Base timeout of the unreliable failure detector.
    detection_timeout: float = knob(4.0, DELAY)
    #: How many consecutive timeouts a silence must span before the node
    #: is suspected (the timeout × suspicion-counter detector family):
    #: a node is believed down once no heartbeat has arrived for
    #: ``suspicion_threshold * detection_timeout`` time units.
    suspicion_threshold: int = knob(2, THRESHOLD)
    #: Time to transfer and replay the missed history once a source is
    #: reached (state-transfer cost).
    catchup_latency: float = knob(2.0, DELAY)
    #: Cost of each catch-up attempt against a peer the detector
    #: believed alive but that cannot actually serve (itself down or
    #: still state-incomplete): a timed-out transfer before trying the
    #: next source.
    retry_backoff: float = knob(1.0, DELAY)
    #: History source policy; see :data:`CATCHUP_SOURCES`.
    catchup_source: str = knob("peer-then-log", SOURCE)

    @property
    def suspicion_window(self) -> float:
        """Silence length after which a node is believed down."""
        return self.suspicion_threshold * self.detection_timeout
