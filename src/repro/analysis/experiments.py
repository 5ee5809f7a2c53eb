"""Experiment drivers: one entry point per paper artifact.

The table experiments live in :mod:`repro.analysis.tables`; this module
adds the theorem-level experiments — domination (Theorems 6 and 8),
maximality (Theorems 5, 7 and 9) — and the Figure-1 motivation experiment
(replication reduces missed alerts).  The benchmarks call these drivers
and print their results; EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.components.system import SystemConfig, run_system
from repro.core.alert import Alert
from repro.core.condition import c1
from repro.core.sequences import is_strictly_ordered
from repro.displayers.ad1 import AD1
from repro.displayers.ad2 import AD2
from repro.displayers.ad3 import AD3
from repro.displayers.ad4 import AD4
from repro.props.consistency import check_consistency_single
from repro.faults.plan import FaultProfile
from repro.props.domination import DominationResult, test_domination
from repro.props.maximality import MaximalityResult, probe_streams
from repro.quality.metrics import alert_quality
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import threshold_crossers
from repro.workloads.scenarios import (
    ROW_ORDER,
    SINGLE_VARIABLE_SCENARIOS,
    run_scenario,
)

__all__ = [
    "collect_arrival_streams",
    "domination_experiment",
    "maximality_experiment",
    "availability_experiment",
    "AvailabilityPoint",
    "strict_orderedness_property",
    "consistency_property",
]


def collect_arrival_streams(
    trials: int,
    n_updates: int = 30,
    base_seed: int = 424200,
    rows: Sequence[str] = ROW_ORDER,
) -> list[tuple[Alert, ...]]:
    """Arrival streams at the AD from randomized single-variable runs.

    The stream reaching the AD does not depend on the filtering algorithm
    (CEs send regardless), so we run with the pass-through AD and harvest
    ``ad_arrivals``.  Streams are drawn across all scenario rows so the
    replay set contains losses, gaps, duplicates and reorderings.
    """
    streams: list[tuple[Alert, ...]] = []
    for index in range(trials):
        row = rows[index % len(rows)]
        run = run_scenario(
            SINGLE_VARIABLE_SCENARIOS[row],
            "pass",
            base_seed + index,
            n_updates=n_updates,
        )
        if run.ad_arrivals:
            streams.append(run.ad_arrivals)
    return streams


def domination_experiment(
    trials: int = 200, n_updates: int = 30, base_seed: int = 424200
) -> dict[str, DominationResult]:
    """Theorems 6 and 8: AD-1 > AD-2 and AD-1 > AD-3.

    Also replays AD-1 vs AD-4 (implied by Theorems 6+8: AD-4 filters
    whatever either constituent filters) as a sanity extension.
    """
    streams = collect_arrival_streams(trials, n_updates, base_seed)
    return {
        "thm6 (AD-1 vs AD-2)": test_domination(AD1(), AD2("x"), streams),
        "thm8 (AD-1 vs AD-3)": test_domination(AD1(), AD3("x"), streams),
        "ext (AD-1 vs AD-4)": test_domination(AD1(), AD4("x"), streams),
    }


def strict_orderedness_property(varname: str = "x"):
    """The property AD-2's discards must be necessary for.

    Strictly increasing ``a.seqno.x``: non-decreasing order (the paper's
    orderedness) *plus* no repeated seqno.  The strict form treats a
    repeated seqno as a display defect (it is either an exact duplicate,
    which every AD must suppress, or two conflicting same-trigger alerts),
    matching what AD-2's ``<=`` test enforces.
    """

    def holds(alerts: Sequence[Alert]) -> bool:
        return is_strictly_ordered([a.seqno(varname) for a in alerts])

    return holds


def consistency_property(varname: str = "x"):
    """The property AD-3's discards must be necessary for: single-variable
    consistency plus duplicate-freedom."""

    def holds(alerts: Sequence[Alert]) -> bool:
        identities = [a.identity() for a in alerts]
        if len(set(identities)) != len(identities):
            return False
        return bool(check_consistency_single(identities, varname))

    return holds


def maximality_experiment(
    trials: int = 200, n_updates: int = 30, base_seed: int = 424300
) -> dict[str, MaximalityResult]:
    """Theorems 5, 7, 9: greedy maximality probes for AD-2, AD-3, AD-4."""
    streams = collect_arrival_streams(trials, n_updates, base_seed)
    ordered = strict_orderedness_property("x")
    consistent = consistency_property("x")

    def both(alerts: Sequence[Alert]) -> bool:
        return ordered(alerts) and consistent(alerts)

    return {
        "thm5 (AD-2 maximally ordered)": probe_streams(AD2("x"), streams, ordered),
        "thm7 (AD-3 maximally consistent)": probe_streams(
            AD3("x"), streams, consistent
        ),
        "thm9 (AD-4 maximally ordered+consistent)": probe_streams(
            AD4("x"), streams, both
        ),
    }


@dataclass(frozen=True)
class AvailabilityPoint:
    """One sweep point of the Figure-1 motivation experiment."""

    front_loss: float
    replication: int
    trials: int
    mean_miss_fraction: float
    any_alert_missed_fraction: float


def availability_experiment(
    loss_probs: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    replications: Sequence[int] = (1, 2, 3),
    trials: int = 40,
    n_updates: int = 40,
    crash_rate: float = 0.004,
    mean_repair: float = 60.0,
    base_seed: int = 424400,
) -> list[AvailabilityPoint]:
    """Replication vs missed alerts (the paper's motivation for Figure 1).

    Condition c1 over threshold-crossing temperatures; front links lossy;
    each CE additionally crash/recovers as a renewal process (a
    :class:`~repro.faults.plan.FaultProfile` with only CE crashes set,
    materialized per trial from the trial's own seed).  For each
    (loss, replication) point we measure the fraction of ground-truth
    alerts that never reached the user.
    """
    profile = FaultProfile(ce_crash_rate=crash_rate, ce_mean_repair=mean_repair)
    points: list[AvailabilityPoint] = []
    horizon = n_updates * 10.0
    for loss in loss_probs:
        for replication in replications:
            total_miss = 0.0
            runs_with_miss = 0
            for trial in range(trials):
                seed = base_seed + trial + int(loss * 1000) * 7 + replication * 131
                streams = RandomStreams(seed)
                workload = {
                    "x": threshold_crossers(streams.stream("workload/x"), n_updates)
                }
                plan = profile.materialize(
                    streams,
                    horizon=horizon,
                    replication=replication,
                    variables=("x",),
                )
                config = plan.apply_to(
                    SystemConfig(
                        replication=replication,
                        ad_algorithm="AD-1",
                        front_loss=loss,
                    )
                )
                run = run_system(c1(), workload, config, seed=seed)
                quality = alert_quality(run)
                if quality.expected:
                    total_miss += quality.missed / quality.expected
                if quality.missed > 0:
                    runs_with_miss += 1
            points.append(
                AvailabilityPoint(
                    front_loss=loss,
                    replication=replication,
                    trials=trials,
                    mean_miss_fraction=total_miss / trials,
                    any_alert_missed_fraction=runs_with_miss / trials,
                )
            )
    return points
