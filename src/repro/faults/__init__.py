"""Composable, deterministic fault injection for the simulated system.

The package generalizes :class:`~repro.simulation.failures.CrashSchedule`
into whole-system fault *plans*: per-node crash/recover windows, link
outage and congestion windows, correlated (Gilbert–Elliott) burst loss,
and bounded duplication adversaries.  Two layers keep plans both
portable and concrete:

* :class:`FaultProfile` — all-scalar rates; picklable and JSON-safe, so
  it rides on :class:`~repro.engine.spec.TrialSpec` across process
  boundaries and trace headers, and scales with a single ``intensity``
  knob for chaos sweeps.
* :class:`FaultPlan` — concrete windows materialized from a profile via
  dedicated ``"faults/..."`` RNG streams (so clean runs stay
  bit-identical), applied onto a
  :class:`~repro.components.system.SystemConfig`.

:mod:`repro.faults.chaos` declares the chaos and churn sweeps, which
report property survival rates plus minimal violating seeds (``repro
sweep chaos``) and what membership recovery buys back (``repro sweep
churn``).
"""

from repro.faults.chaos import (
    CHAOS_SWEEP,
    CHURN_SWEEP,
    chaos_specs,
    churn_specs,
    recovery_restores_alerts,
    replication_reduces_misses,
)
from repro.faults.model import (
    DelaySpikeSchedule,
    DuplicationAdversary,
    GilbertElliottLoss,
    GilbertElliottParams,
)
from repro.faults.plan import (
    DEFAULT_CHAOS_PROFILE,
    DEFAULT_CHURN_PROFILE,
    FaultPlan,
    FaultProfile,
)

__all__ = [
    "CHAOS_SWEEP",
    "CHURN_SWEEP",
    "DEFAULT_CHAOS_PROFILE",
    "DEFAULT_CHURN_PROFILE",
    "DelaySpikeSchedule",
    "DuplicationAdversary",
    "FaultPlan",
    "FaultProfile",
    "GilbertElliottLoss",
    "GilbertElliottParams",
    "chaos_specs",
    "churn_specs",
    "recovery_restores_alerts",
    "replication_reduces_misses",
]
