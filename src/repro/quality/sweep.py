"""Quality sweeps: precision/recall/latency vs loss × fault intensity.

One cell = (algorithm, front loss, fault intensity, replication) on one
scenario row.  The seed block of a cell deliberately excludes the
*algorithm*: every algorithm at a given (row, loss, intensity,
replication) point runs the **same seeds**, hence the same simulated
update/alert schedules (the AD is terminal — it never perturbs the
run), so differences between algorithms are pure filtering effects,
never sampling noise.  That is what makes the adaptive-vs-static gate
(:func:`adaptive_matches_best_static`) deterministic rather than
statistical.

Fault intensity scales :data:`~repro.faults.plan.DEFAULT_CHAOS_PROFILE`
— crash windows, outages, burst loss, duplication *and delay spikes* —
so the intensity axis doubles as the delay axis: latency percentiles
rise with it even where recall holds.

The whole grid runs as one batch on a
:class:`~repro.engine.core.TrialEngine`, like the chaos sweeps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass

from repro.accel import percentiles
from repro.engine.core import INLINE_ENGINE, TrialEngine
from repro.engine.plan import cell_specs, require_axes
from repro.engine.spec import TrialSpec
from repro.faults.plan import DEFAULT_CHAOS_PROFILE, FaultProfile
from repro.props.report import PropertyReport

__all__ = [
    "QUALITY_BASE_SEED",
    "QualityCell",
    "adaptive_matches_best_static",
    "quality_json",
    "quality_specs",
    "quality_sweep",
    "render_quality_table",
]

#: Default base seed for quality sweeps (distinct from tables' and chaos').
QUALITY_BASE_SEED = 20011000

#: Default sweep axes: every registered online filter plus the adaptive.
DEFAULT_ALGORITHMS = ("AD-1", "AD-2", "AD-3", "AD-4", "adaptive")
DEFAULT_LOSSES = (0.0, 0.15, 0.3)
DEFAULT_INTENSITIES = (0.0, 0.5, 1.0, 2.0)


#: The trial-mean rates of a cell (rounded in its JSON form).
_RATE_FIELDS = (
    "precision", "recall", "missed_rate", "duplicate_rate", "false_rate"
)


@dataclass(frozen=True)
class QualityCell:
    """Folded quality of one sweep point, pooled over its trials."""

    algorithm: str
    front_loss: float
    intensity: float
    replication: int
    trials: int
    #: Pooled event counts over the cell's trials.
    expected: int
    detected: int
    duplicates: int
    false_alerts: int
    displayed: int
    #: Trial-mean rates (each trial weighted equally, like the chaos
    #: sweep's mean_miss_fraction).
    precision: float
    recall: float
    missed_rate: float
    duplicate_rate: float
    false_rate: float
    #: Percentiles of the pooled latency samples (None = no detections).
    latency_p50: float | None
    latency_p99: float | None
    latency_samples: int

    def as_dict(self) -> dict:
        document = asdict(self)
        for name in _RATE_FIELDS:
            document[name] = round(document[name], 6)
        return document


def quality_specs(
    algorithm: str,
    front_loss: float,
    intensity: float,
    trials: int,
    row: str = "non-historical",
    matrix: str = "single",
    n_updates: int = 30,
    replication: int = 2,
    base_seed: int = QUALITY_BASE_SEED,
    profile: FaultProfile = DEFAULT_CHAOS_PROFILE,
) -> list[TrialSpec]:
    """The trial specs of one sweep cell, in ascending-seed order.

    The cell key — and therefore the seed block — excludes the
    algorithm, so every algorithm at one (row, loss, intensity,
    replication) point replays identical simulated schedules.
    """
    return cell_specs(
        f"quality/{matrix}/{row}/{front_loss:g}/{intensity:g}/{replication}",
        base_seed,
        trials,
        matrix,
        row,
        algorithm,
        n_updates,
        replication=replication,
        front_loss=front_loss,
        faults=profile.scaled(intensity).or_none(),
        collect_quality=True,
    )


def _fold_cell(
    algorithm: str,
    front_loss: float,
    intensity: float,
    replication: int,
    _specs: Sequence[TrialSpec],
    reports: Sequence[PropertyReport],
) -> QualityCell:
    expected = detected = duplicates = false_alerts = displayed = 0
    precision_sum = recall_sum = missed_sum = dup_rate_sum = false_rate_sum = 0.0
    latencies: list[float] = []
    for report in reports:
        quality = report.quality
        exp, det, shown = (
            quality["expected"], quality["detected"], quality["displayed"]
        )
        expected += exp
        detected += det
        displayed += shown
        duplicates += quality["duplicates"]
        false_alerts += quality["false_alerts"]
        precision_sum += det / shown if shown else 1.0
        recall_sum += det / exp if exp else 1.0
        missed_sum += (exp - det) / exp if exp else 0.0
        dup_rate_sum += quality["duplicates"] / shown if shown else 0.0
        false_rate_sum += quality["false_alerts"] / shown if shown else 0.0
        latencies.extend(quality["latency_samples"])
    trials = len(reports)
    latency_p50, latency_p99 = (
        percentiles(latencies, (50.0, 99.0)) if latencies else (None, None)
    )
    return QualityCell(
        algorithm=algorithm,
        front_loss=front_loss,
        intensity=intensity,
        replication=replication,
        trials=trials,
        expected=expected,
        detected=detected,
        duplicates=duplicates,
        false_alerts=false_alerts,
        displayed=displayed,
        precision=precision_sum / trials if trials else 1.0,
        recall=recall_sum / trials if trials else 1.0,
        missed_rate=missed_sum / trials if trials else 0.0,
        duplicate_rate=dup_rate_sum / trials if trials else 0.0,
        false_rate=false_rate_sum / trials if trials else 0.0,
        latency_p50=latency_p50,
        latency_p99=latency_p99,
        latency_samples=len(latencies),
    )


def quality_sweep(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    losses: Sequence[float] = DEFAULT_LOSSES,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    trials: int = 20,
    row: str = "non-historical",
    matrix: str = "single",
    n_updates: int = 30,
    replication: int = 2,
    base_seed: int = QUALITY_BASE_SEED,
    profile: FaultProfile = DEFAULT_CHAOS_PROFILE,
    engine: TrialEngine = INLINE_ENGINE,
) -> list[QualityCell]:
    """Sweep algorithm × loss × fault intensity; one folded cell each.

    ``engine`` only changes where trials run (inline by default), never
    the results.
    """
    require_axes(algorithms=algorithms, losses=losses, intensities=intensities)

    def specs_of(algorithm, front_loss, intensity, replication):
        return quality_specs(
            algorithm, front_loss, intensity, trials, row=row, matrix=matrix,
            n_updates=n_updates, replication=replication, base_seed=base_seed,
            profile=profile,
        )

    points = [
        (algorithm, front_loss, intensity, replication)
        for front_loss in losses
        for intensity in intensities
        for algorithm in algorithms
    ]
    return engine.run_grid(points, specs_of, _fold_cell)


def adaptive_matches_best_static(
    cells: Sequence[QualityCell],
    adaptive: str = "adaptive",
    tolerance: float = 1e-9,
) -> bool:
    """The adaptive gate: at every (loss, intensity, replication) point,
    the adaptive algorithm's missed-alert rate is ≤ every static
    algorithm's.  With shared per-point seeds this is exact — the recall
    guard pins the adaptive's detected-event set to the arrival stream's
    whole event set — so ``tolerance`` only absorbs float summation."""
    by_point: dict[tuple, list[QualityCell]] = {}
    for cell in cells:
        key = (cell.front_loss, cell.intensity, cell.replication)
        by_point.setdefault(key, []).append(cell)
    seen_adaptive = False
    for group in by_point.values():
        adaptives = [c for c in group if c.algorithm == adaptive]
        statics = [c for c in group if c.algorithm != adaptive]
        if not adaptives or not statics:
            continue
        seen_adaptive = True
        best_static = min(c.missed_rate for c in statics)
        if adaptives[0].missed_rate > best_static + tolerance:
            return False
    return seen_adaptive


def render_quality_table(cells: Sequence[QualityCell]) -> str:
    """Fixed-width text table of a sweep, one line per cell."""

    def lat(value: float | None) -> str:
        return "      -" if value is None else f"{value:>7.2f}"

    lines = [
        f"{'loss':>5} {'chaos':>6} {'algorithm':>9} {'precision':>10} "
        f"{'recall':>7} {'missed':>7} {'dup':>6} {'false':>6} "
        f"{'lat-p50':>8} {'lat-p99':>8}"
    ]
    for cell in cells:
        lines.append(
            f"{cell.front_loss:>5g} {cell.intensity:>6g} "
            f"{cell.algorithm:>9} {cell.precision:>10.3f} "
            f"{cell.recall:>7.3f} {cell.missed_rate:>7.3f} "
            f"{cell.duplicate_rate:>6.3f} {cell.false_rate:>6.3f} "
            f"{lat(cell.latency_p50):>8} {lat(cell.latency_p99):>8}"
        )
    return "\n".join(lines)


def quality_json(
    cells: Sequence[QualityCell],
    row: str = "non-historical",
    matrix: str = "single",
    trials: int | None = None,
    n_updates: int | None = None,
) -> dict:
    """The sweep document ``repro quality --json`` writes for these cells."""
    return {
        "bench": "quality",
        "matrix": matrix,
        "row": row,
        "trials": trials,
        "n_updates": n_updates,
        "adaptive_matches_best_static": adaptive_matches_best_static(cells),
        "cells": [cell.as_dict() for cell in cells],
    }
