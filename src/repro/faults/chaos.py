"""Chaos and churn sweeps: property survival and alert delivery vs faults.

The paper's availability story (Figure 1) says replication masks CE
downtime; the property tables say the AD algorithms keep their guarantees
on whatever alert stream reaches them.  The chaos sweep
(:data:`CHAOS_SWEEP`, ``repro sweep chaos``) measures both at once under
the full fault model: for each (intensity, replication) cell it runs
seeded trials with :class:`~repro.faults.plan.FaultProfile` scaled to the
intensity, then reports

* per-property survival rates (fraction of trials with no violation),
* the minimal violating seed per property — a replayable witness
  (``repro trace record --chaos``), and
* ground-truth alert delivery (missed-alert fractions, read off the
  event-keyed :func:`~repro.quality.metrics.alert_quality`), whose
  decrease in the replication factor *is* the Figure-1 claim.

The churn sweep (:data:`CHURN_SWEEP`, ``repro sweep churn``) crashes CEs
only and asks what heartbeat detection plus catch-up buys back against
the crash-without-recovery baseline.  Both are
:class:`~repro.engine.sweep.Sweep` declarations.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.accel import mean
from repro.engine.plan import cell_specs
from repro.engine.spec import TrialSpec
from repro.engine.sweep import Cell, Column, Param, Sweep, trial_mean
from repro.faults.plan import (
    DEFAULT_CHAOS_PROFILE,
    DEFAULT_CHURN_PROFILE,
    FaultProfile,
)
from repro.workloads.scenarios import ROW_ORDER

__all__ = [
    "CHAOS_SWEEP",
    "CHURN_SWEEP",
    "chaos_specs",
    "churn_specs",
    "recovery_restores_alerts",
    "replication_reduces_misses",
]

#: Default base seed for chaos sweeps (distinct from the table grids').
CHAOS_BASE_SEED = 20010900


def chaos_specs(
    intensity: float,
    replication: int,
    trials: int,
    row: str = "non-historical",
    matrix: str = "single",
    algorithm: str = "AD-4",
    n_updates: int = 30,
    base_seed: int = CHAOS_BASE_SEED,
    profile: FaultProfile = DEFAULT_CHAOS_PROFILE,
) -> list[TrialSpec]:
    """The trial specs of one sweep cell, in ascending-seed order.

    The seed block is that of :func:`repro.engine.plan.cell_specs` for
    the key below, so cells never share seeds and any witness seed pins
    down its exact trial.
    """
    return cell_specs(
        f"chaos/{matrix}/{row}/{algorithm}/{replication}/{intensity:g}",
        base_seed,
        trials,
        matrix,
        row,
        algorithm,
        n_updates,
        replication=replication,
        faults=profile.scaled(intensity).or_none(),
        collect_quality=True,
    )


def _by_intensity(cells: Sequence) -> list[list]:
    groups: dict[float, list] = {}
    for cell in cells:
        groups.setdefault(cell["intensity"], []).append(cell)
    return list(groups.values())


def _never_worse_and_helps(judged, tolerance: float) -> bool:
    """The shape both sweep gates share.  ``judged`` yields, per
    intensity, the ``(reference, candidate)`` pairs (the first reference
    is the baseline) and the best cell: no candidate may miss more than
    its reference plus ``tolerance``, and if any baseline misses alerts
    at all, some best cell must strictly improve on its baseline."""
    helped = False
    needs_help = False
    for pairs, best in judged:
        base = pairs[0][0]
        for reference, candidate in pairs:
            if (
                candidate["mean_miss_fraction"]
                > reference["mean_miss_fraction"] + tolerance
            ):
                return False
        if base["mean_miss_fraction"] > tolerance:
            needs_help = True
            if best["mean_miss_fraction"] < base["mean_miss_fraction"]:
                helped = True
    return helped or not needs_help


def replication_reduces_misses(
    cells: Sequence[Cell], tolerance: float = 0.02
) -> bool:
    """The Figure-1 claim over a sweep: at every intensity, adding a CE
    never increases the missed-alert fraction by more than ``tolerance``
    (sampling slack), and it strictly helps somewhere whenever any
    single-CE cell misses alerts at all."""
    groups = [
        sorted(group, key=lambda c: c["replication"])
        for group in _by_intensity(cells)
    ]
    return _never_worse_and_helps(
        ((list(zip(g, g[1:])), g[-1]) for g in groups if len(g) >= 2),
        tolerance,
    )


def churn_specs(
    intensity: float,
    detection_timeout: float | None,
    catchup_latency: float,
    trials: int,
    row: str = "aggressive",
    matrix: str = "single",
    algorithm: str = "pass",
    n_updates: int = 14,
    replication: int = 2,
    base_seed: int = CHAOS_BASE_SEED,
    profile: FaultProfile = DEFAULT_CHURN_PROFILE,
    catchup_source: str = "peer-then-log",
) -> list[TrialSpec]:
    """The trial specs of one churn sweep cell, in ascending-seed order.

    The cell key — and therefore the seed block — deliberately excludes
    the membership knobs: every (detection_timeout, catchup_latency)
    point at one intensity runs the *same* seeds over the same
    materialized crash schedules, so differences between cells are pure
    recovery-policy effects, never sampling noise.  Front loss is forced
    to zero so crashes are the only divergence source.
    """
    from repro.membership.config import MembershipConfig

    membership = None
    if detection_timeout is not None:
        membership = MembershipConfig(
            detection_timeout=detection_timeout,
            catchup_latency=catchup_latency,
            catchup_source=catchup_source,
        )
    return cell_specs(
        f"churn/{matrix}/{row}/{algorithm}/{replication}/{intensity:g}",
        base_seed,
        trials,
        matrix,
        row,
        algorithm,
        n_updates,
        replication=replication,
        front_loss=0.0,
        faults=profile.scaled(intensity).or_none(),
        collect_quality=True,
        membership=membership,
    )


def recovery_restores_alerts(
    cells: Sequence[Cell], tolerance: float = 0.02
) -> bool:
    """The membership claim over a churn sweep: at every intensity whose
    baseline (membership off) misses alerts, the best recovery cell
    strictly reduces the missed-alert fraction, and no recovery cell is
    worse than the baseline by more than ``tolerance``."""

    def judged():
        for group in _by_intensity(cells):
            baselines = [c for c in group if c["detection_timeout"] is None]
            recovered = [c for c in group if c["detection_timeout"] is not None]
            if baselines and recovered:
                best = min(recovered, key=lambda c: c["mean_miss_fraction"])
                yield [(baselines[0], cell) for cell in recovered], best

    return _never_worse_and_helps(judged(), tolerance)


def _survival(name: str, width: int, violations: str, checked: str) -> Column:
    """The fraction of a cell's trials with no violation of one property;
    ``None`` when no trial decided it (completeness checkers can skip big
    instances)."""

    def read(tally, _reports) -> float | None:
        decided = getattr(tally, checked)
        return 1.0 - getattr(tally, violations) / decided if decided else None

    return Column(name, name, width, f"{{:>{width}.2f}}", f"{'n/a':>{width}}", read)


#: The columns both sweeps fold the same way.
_COMMON = (
    Column("trials", read=lambda tally, _reports: tally.runs),
    _survival("ordered", 8, "ordered_violations", "runs"),
    _survival("complete", 9, "completeness_violations", "completeness_checked"),
    _survival("consistent", 11, "consistency_violations", "consistency_checked"),
    Column(
        "mean_miss_fraction", "mean miss", 10, "{:>10.3f}",
        read=lambda _tally, reports: trial_mean(
            r.quality["missed"] / r.quality["expected"]
            if r.quality["expected"] else 0.0
            for r in reports
        ),
    ),
)

#: Witness fields of a tally, by property name in sorted order.
_WITNESS_SEEDS = (
    ("complete", "first_incomplete_seed"),
    ("consistent", "first_inconsistent_seed"),
    ("ordered", "first_unordered_seed"),
)


def _witnesses(tally, _reports) -> str | None:
    """``prop@seed`` per violated property: the cell's minimal violating
    seed (its specs are in ascending-seed order), replayable with
    ``repro trace record --chaos``."""
    found = [
        f"{prop}@{getattr(tally, field)}"
        for prop, field in _WITNESS_SEEDS
        if getattr(tally, field) is not None
    ]
    return ", ".join(found) or None


CHAOS_SWEEP = Sweep(
    name="chaos",
    help="sweep fault intensity x replication: property survival rates, "
    "witness seeds, and the Figure-1 availability check",
    params=(
        Param("intensities", (0.0, 0.5, 1.0, 2.0), key="intensity",
              help="chaos knob values scaling the default fault profile"),
        Param("replications", (1, 2, 3), int, key="replication",
              help="CE replication factors to compare at each intensity"),
        Param("trials", 30, int),
        Param("row", "non-historical", str, choices=ROW_ORDER),
        Param("algorithm", "AD-4", str),
        Param("n_updates", 30, int, flag="--updates"),
    ),
    point=("intensity", "replication"),
    specs=chaos_specs,
    columns=(
        Column("intensity", "chaos", 6, "{:>6g}"),
        Column("replication", "CEs", 4, "{:>4}"),
        *_COMMON,
        Column(
            "any_miss_fraction", "any-miss", 9, "{:>9.2f}",
            read=lambda _tally, reports: trial_mean(
                1.0 if r.quality["missed"] > 0 else 0.0 for r in reports
            ),
        ),
        Column("witnesses", "witnesses", 10, " {}", " -", _witnesses),
    ),
    claim=replication_reduces_misses,
    claim_line="replication reduces missed alerts: {} (the Figure-1 claim)",
    note="replay a witness with: repro trace record {row} --algorithm "
    "{algorithm} --updates {n_updates} --chaos <intensity> --seed <seed>",
)


def _churn_grid(settings: dict) -> list[dict]:
    """Per intensity, the crash-without-recovery baseline (membership off;
    run once, as catch-up latency means nothing without recovery), then
    every (detection timeout, catch-up latency) recovery cell — all on
    the baseline's seeds, so the sweep reports what detection + catch-up
    buys back."""
    latencies = settings["catchup_latencies"]
    return [
        {"intensity": intensity, "detection_timeout": timeout,
         "catchup_latency": latency}
        for intensity in settings["intensities"]
        for timeout in (None, *settings["detection_timeouts"])
        for latency in (latencies if timeout is not None else latencies[:1])
    ]


def _violations_steady(tally, _reports) -> int:
    # The tally splits violations only over membership-on runs; the
    # membership-off baseline has no churn context and is all steady.
    return (
        tally.ordered_violations
        + tally.completeness_violations
        + tally.consistency_violations
        - tally.violations_degraded
    )


def _mean_time_to_recover(_tally, reports) -> float | None:
    values = [
        r.churn["mean_time_to_recover"]
        for r in reports
        if r.churn is not None and r.churn["mean_time_to_recover"] is not None
    ]
    return mean(values) if values else None


CHURN_SWEEP = Sweep(
    name="churn",
    help="sweep churn intensity x detection timeout x catch-up latency "
    "under the CE-crash-only churn profile: what detection + catch-up "
    "buys back vs the crash-without-recovery baseline",
    params=(
        Param("intensities", (0.5, 1.0, 2.0), key="intensity",
              help="churn knob values scaling the CE-crash-only profile"),
        Param("detection_timeouts", (2.0, 6.0), key="detection_timeout",
              help="failure-detector timeouts; the membership-off "
              "baseline is always swept alongside"),
        Param("catchup_latencies", (2.0,), key="catchup_latency",
              help="state-transfer latencies per recovery"),
        Param("trials", 20, int),
        Param("row", "aggressive", str, choices=ROW_ORDER),
        Param("algorithm", "pass", str),
        Param("n_updates", 14, int, flag="--updates"),
        Param("replication", 2, int),
        Param("catchup_source", "peer-then-log", str,
              choices=("peer-then-log", "peer", "log", "none"),
              help="where a recovering CE replays history from"),
    ),
    point=("intensity", "detection_timeout", "catchup_latency"),
    specs=churn_specs,
    columns=(
        Column("intensity", "chaos", 6, "{:>6g}"),
        Column("detection_timeout", "detect", 7, "{:>7g}", "    off"),
        Column("catchup_latency", "catchup", 8, "{:>8g}"),
        *_COMMON,
        Column("violations_degraded", "viol-deg", 9, "{:>9}",
               read=lambda tally, _reports: tally.violations_degraded),
        Column("violations_steady", "viol-std", 9, "{:>9}",
               read=_violations_steady),
        Column(
            "caught_up", "caught-up", 10, "{:>10}",
            read=lambda _tally, reports: sum(
                r.churn["caught_up"] for r in reports if r.churn is not None
            ),
        ),
        Column("mean_time_to_recover", "mttr", 7, "{:>7.2f}", "    -",
               read=_mean_time_to_recover),
    ),
    claim=recovery_restores_alerts,
    claim_line="detection + catch-up reduces missed alerts vs crash-only: {}",
    grid=_churn_grid,
)
