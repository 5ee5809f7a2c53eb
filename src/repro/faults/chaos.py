"""Chaos sweeps: property survival and alert delivery vs fault intensity.

The paper's availability story (Figure 1) says replication masks CE
downtime; the property tables say the AD algorithms keep their guarantees
on whatever alert stream reaches them.  A chaos sweep measures both at
once under the full fault model: for each (intensity, replication) cell
it runs seeded trials with :class:`~repro.faults.plan.FaultProfile`
scaled to the intensity, then reports

* per-property survival rates (fraction of trials with no violation),
* the minimal violating seed per property — a replayable witness
  (``repro trace record --chaos``), and
* ground-truth alert delivery (missed-alert fractions), whose decrease
  in the replication factor *is* the Figure-1 claim.

A sweep lays its whole grid out as specs, runs it as one batch on a
:class:`~repro.engine.core.TrialEngine` (the inline one unless a pooled
one is passed) and folds each cell's slice of the reports.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from repro.accel import mean
from repro.engine.core import INLINE_ENGINE, TrialEngine, fold_tally
from repro.engine.plan import cell_specs, require_axes
from repro.engine.spec import TrialSpec
from repro.faults.plan import (
    DEFAULT_CHAOS_PROFILE,
    DEFAULT_CHURN_PROFILE,
    FaultProfile,
)
from repro.props.report import PropertyReport, PropertyTally

__all__ = [
    "ChaosCell",
    "ChurnCell",
    "chaos_specs",
    "chaos_sweep",
    "churn_specs",
    "churn_sweep",
    "recovery_restores_alerts",
    "replication_reduces_misses",
    "render_chaos_table",
    "render_churn_table",
]

#: Default base seed for chaos sweeps (distinct from the table grids').
CHAOS_BASE_SEED = 20010900


@dataclass(frozen=True)
class ChaosCell:
    """Folded results of one (intensity, replication) sweep point."""

    intensity: float
    replication: int
    trials: int
    #: Fraction of trials with no violation; ``None`` when the property
    #: was never decided (completeness checkers can skip big instances).
    survival: dict[str, float | None]
    #: Minimal violating seed per property (absent = no violation seen).
    witness_seeds: dict[str, int]
    #: Mean ground-truth missed-alert fraction over the cell's trials.
    mean_miss_fraction: float
    #: Fraction of trials in which at least one ground-truth alert was
    #: never displayed.
    any_miss_fraction: float


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
        collect_delivery=True,
    )


def _shared_columns(
    tally: PropertyTally, reports: Sequence[PropertyReport]
) -> dict:
    """The columns both cell types share, as constructor keywords: the
    verdict columns read off the cell's tally, the delivery columns
    summed here.

    Specs are in ascending-seed order, so the tally's first violating
    seed per property is the minimal one.
    """
    verdicts = {
        "ordered": (
            tally.ordered_violations, tally.runs, tally.first_unordered_seed
        ),
        "complete": (
            tally.completeness_violations,
            tally.completeness_checked,
            tally.first_incomplete_seed,
        ),
        "consistent": (
            tally.consistency_violations,
            tally.consistency_checked,
            tally.first_inconsistent_seed,
        ),
    }
    total_miss = 0.0
    runs_with_miss = 0
    for report in reports:
        expected = report.delivery["expected"]
        missed = expected - report.delivery["delivered"]
        if expected:
            total_miss += missed / expected
        if missed > 0:
            runs_with_miss += 1
    trials = tally.runs
    return dict(
        trials=trials,
        survival={
            prop: 1.0 - violations / checked if checked else None
            for prop, (violations, checked, _) in verdicts.items()
        },
        witness_seeds={
            prop: seed
            for prop, (_, _, seed) in verdicts.items()
            if seed is not None
        },
        mean_miss_fraction=total_miss / trials if trials else 0.0,
        any_miss_fraction=runs_with_miss / trials if trials else 0.0,
    )


def _fold_cell(
    intensity: float,
    replication: int,
    specs: Sequence[TrialSpec],
    reports: Sequence[PropertyReport],
) -> ChaosCell:
    tally = fold_tally(specs, reports)
    return ChaosCell(intensity, replication, **_shared_columns(tally, reports))


def chaos_sweep(
    intensities: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    replications: Sequence[int] = (1, 2, 3),
    trials: int = 30,
    row: str = "non-historical",
    matrix: str = "single",
    algorithm: str = "AD-4",
    n_updates: int = 30,
    base_seed: int = CHAOS_BASE_SEED,
    profile: FaultProfile = DEFAULT_CHAOS_PROFILE,
    engine: TrialEngine = INLINE_ENGINE,
) -> list[ChaosCell]:
    """Sweep fault intensity × replication; one folded cell per point.

    ``engine`` only changes where trials run (inline by default, or a
    pooled :class:`~repro.engine.core.TrialEngine`), never the verdicts.
    """
    require_axes(intensities=intensities, replications=replications)
    specs_of = partial(
        chaos_specs, trials=trials, row=row, matrix=matrix,
        algorithm=algorithm, n_updates=n_updates, base_seed=base_seed,
        profile=profile,
    )
    points = [(i, r) for i in intensities for r in replications]
    return engine.run_grid(points, specs_of, _fold_cell)


def _by_intensity(cells: Sequence) -> list[list]:
    groups: dict[float, list] = {}
    for cell in cells:
        groups.setdefault(cell.intensity, []).append(cell)
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
                candidate.mean_miss_fraction
                > reference.mean_miss_fraction + tolerance
            ):
                return False
        if base.mean_miss_fraction > tolerance:
            needs_help = True
            if best.mean_miss_fraction < base.mean_miss_fraction:
                helped = True
    return helped or not needs_help


def replication_reduces_misses(
    cells: Sequence[ChaosCell], tolerance: float = 0.02
) -> bool:
    """The Figure-1 claim over a sweep: at every intensity, adding a CE
    never increases the missed-alert fraction by more than ``tolerance``
    (sampling slack), and it strictly helps somewhere whenever any
    single-CE cell misses alerts at all."""
    groups = [
        sorted(group, key=lambda c: c.replication)
        for group in _by_intensity(cells)
    ]
    return _never_worse_and_helps(
        ((list(zip(g, g[1:])), g[-1]) for g in groups if len(g) >= 2),
        tolerance,
    )


@dataclass(frozen=True)
class ChurnCell:
    """Folded results of one churn sweep point.

    ``detection_timeout is None`` marks the crash-without-recovery
    baseline (membership off) the other cells of the same intensity are
    judged against.
    """

    intensity: float
    detection_timeout: float | None
    catchup_latency: float
    trials: int
    survival: dict[str, float | None]
    witness_seeds: dict[str, int]
    mean_miss_fraction: float
    any_miss_fraction: float
    #: Fraction of trials that spent any time below quorum.
    degraded_runs: float
    #: Mean fraction of the horizon spent below quorum.
    degraded_fraction: float
    #: Property violations split by churn context (run-level).
    violations_degraded: int
    violations_steady: int
    #: Updates re-acquired via catch-up, summed over the cell's trials.
    caught_up: int
    mean_detection_latency: float | None
    mean_time_to_recover: float | None


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
        collect_delivery=True,
        membership=membership,
    )


def _fold_churn_cell(
    intensity: float,
    detection_timeout: float | None,
    catchup_latency: float,
    specs: Sequence[TrialSpec],
    reports: Sequence[PropertyReport],
) -> ChurnCell:
    tally = fold_tally(specs, reports)
    # The tally splits violations only over membership-on runs; the
    # membership-off baseline has no churn context and is all steady.
    violations = (
        tally.ordered_violations
        + tally.completeness_violations
        + tally.consistency_violations
    )
    churns = [r.churn for r in reports if r.churn is not None]
    degraded_fraction = sum(churn["degraded_fraction"] for churn in churns)
    trials = tally.runs

    def mean_of(key: str) -> float | None:
        values = [c[key] for c in churns if c[key] is not None]
        return mean(values) if values else None

    return ChurnCell(
        intensity,
        detection_timeout,
        catchup_latency,
        **_shared_columns(tally, reports),
        degraded_runs=tally.degraded_runs / trials if trials else 0.0,
        degraded_fraction=degraded_fraction / trials if trials else 0.0,
        violations_degraded=tally.violations_degraded,
        violations_steady=violations - tally.violations_degraded,
        caught_up=sum(churn["caught_up"] for churn in churns),
        mean_detection_latency=mean_of("mean_detection_latency"),
        mean_time_to_recover=mean_of("mean_time_to_recover"),
    )


def churn_sweep(
    intensities: Sequence[float] = (0.5, 1.0, 2.0),
    detection_timeouts: Sequence[float | None] = (None, 2.0, 6.0),
    catchup_latencies: Sequence[float] = (2.0,),
    trials: int = 20,
    row: str = "aggressive",
    matrix: str = "single",
    algorithm: str = "pass",
    n_updates: int = 14,
    replication: int = 2,
    base_seed: int = CHAOS_BASE_SEED,
    profile: FaultProfile = DEFAULT_CHURN_PROFILE,
    engine: TrialEngine = INLINE_ENGINE,
    catchup_source: str = "peer-then-log",
) -> list[ChurnCell]:
    """Sweep fault intensity × detection timeout × catch-up latency.

    A ``None`` detection timeout is the crash-without-recovery baseline;
    it runs once per intensity (catch-up latency is meaningless without
    recovery) on the same seeds as the membership cells, so the sweep
    directly reports what detection + catch-up buys back.
    """
    require_axes(
        intensities=intensities,
        detection_timeouts=detection_timeouts,
        catchup_latencies=catchup_latencies,
    )
    specs_of = partial(
        churn_specs, trials=trials, row=row, matrix=matrix,
        algorithm=algorithm, n_updates=n_updates, replication=replication,
        base_seed=base_seed, profile=profile,
        catchup_source=catchup_source,
    )
    points = [
        (intensity, timeout, latency)
        for intensity in intensities
        for timeout in detection_timeouts
        for latency in (
            catchup_latencies if timeout is not None else catchup_latencies[:1]
        )
    ]
    return engine.run_grid(points, specs_of, _fold_churn_cell)


def recovery_restores_alerts(
    cells: Sequence[ChurnCell], tolerance: float = 0.02
) -> bool:
    """The membership claim over a churn sweep: at every intensity whose
    baseline (membership off) misses alerts, the best recovery cell
    strictly reduces the missed-alert fraction, and no recovery cell is
    worse than the baseline by more than ``tolerance``."""

    def judged():
        for group in _by_intensity(cells):
            baselines = [c for c in group if c.detection_timeout is None]
            recovered = [c for c in group if c.detection_timeout is not None]
            if baselines and recovered:
                best = min(recovered, key=lambda c: c.mean_miss_fraction)
                yield [(baselines[0], cell) for cell in recovered], best

    return _never_worse_and_helps(judged(), tolerance)


def _verdict_columns(cell: "ChaosCell | ChurnCell") -> str:
    """The survival and mean-miss columns both tables print."""

    def rate(value: float | None) -> str:
        return "   n/a" if value is None else f"{value:>6.2f}"

    return (
        f"{rate(cell.survival['ordered']):>8} "
        f"{rate(cell.survival['complete']):>9} "
        f"{rate(cell.survival['consistent']):>11} "
        f"{cell.mean_miss_fraction:>10.3f}"
    )


def render_churn_table(cells: Sequence[ChurnCell]) -> str:
    """Fixed-width text table of a churn sweep, one line per cell."""
    lines = [
        f"{'chaos':>6} {'detect':>7} {'catchup':>8} {'ordered':>8} "
        f"{'complete':>9} {'consistent':>11} {'mean miss':>10} "
        f"{'viol-deg':>9} {'viol-std':>9} {'caught-up':>10} {'mttr':>7}"
    ]
    for cell in cells:
        detect = (
            "    off" if cell.detection_timeout is None
            else f"{cell.detection_timeout:>7g}"
        )
        mttr = (
            "    -" if cell.mean_time_to_recover is None
            else f"{cell.mean_time_to_recover:>7.2f}"
        )
        lines.append(
            f"{cell.intensity:>6g} {detect} {cell.catchup_latency:>8g} "
            f"{_verdict_columns(cell)} "
            f"{cell.violations_degraded:>9} {cell.violations_steady:>9} "
            f"{cell.caught_up:>10} {mttr}"
        )
    return "\n".join(lines)


def render_chaos_table(cells: Sequence[ChaosCell]) -> str:
    """Fixed-width text table of a sweep, one line per cell."""
    lines = [
        f"{'chaos':>6} {'CEs':>4} {'ordered':>8} {'complete':>9} "
        f"{'consistent':>11} {'mean miss':>10} {'any-miss':>9}  witnesses"
    ]
    for cell in cells:
        witnesses = (
            ", ".join(
                f"{prop}@{seed}" for prop, seed in sorted(cell.witness_seeds.items())
            )
            or "-"
        )
        lines.append(
            f"{cell.intensity:>6g} {cell.replication:>4} "
            f"{_verdict_columns(cell)} {cell.any_miss_fraction:>9.2f}  "
            f"{witnesses}"
        )
    return "\n".join(lines)
