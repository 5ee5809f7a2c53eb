"""Dynamic membership: failure detection, crash-recovery, catch-up.

The fault layer (:mod:`repro.faults`) breaks things; this package makes
the system notice and heal.  Crashes become a full lifecycle —

    heartbeat → suspect (unreliable timeout detector) → rejoin at
    ``next_up_time`` → catch-up (replay missed history from a live peer
    or the DM broadcast log) → state-complete again

— planned analytically from the crash schedules
(:func:`~repro.membership.registry.plan_membership`), executed
identically by both trial kernels, and recorded as ``membership``-stage
trace events so every churn-laden run still replays bit-identically.
:mod:`repro.membership.verdicts` then distinguishes property violations
that happened while the replica set was below quorum from steady-state
ones — the distinction the churn chaos sweeps report.
"""

from repro.membership.config import CATCHUP_SOURCES, MembershipConfig
from repro.membership.detector import NodeView, node_view
from repro.membership.registry import (
    MembershipPlan,
    RecoveryEvent,
    membership_horizon,
    membership_surface,
    plan_membership,
)
from repro.membership.verdicts import churn_summary

__all__ = [
    "CATCHUP_SOURCES",
    "MembershipConfig",
    "MembershipPlan",
    "NodeView",
    "RecoveryEvent",
    "churn_summary",
    "membership_horizon",
    "membership_surface",
    "node_view",
    "plan_membership",
]
