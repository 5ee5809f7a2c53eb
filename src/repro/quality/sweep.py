"""The quality sweep: precision/recall/latency vs loss × fault intensity.

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

:data:`QUALITY_SWEEP` (``repro sweep quality``) is a
:class:`~repro.engine.sweep.Sweep` declaration, like the chaos sweeps.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.accel import percentiles
from repro.engine.plan import cell_specs
from repro.engine.spec import TrialSpec
from repro.engine.sweep import Cell, Column, Param, Sweep, trial_mean
from repro.faults.plan import DEFAULT_CHAOS_PROFILE, FaultProfile
from repro.workloads.scenarios import DIVERSITY_ROWS, ROW_ORDER

__all__ = [
    "QUALITY_BASE_SEED",
    "QUALITY_SWEEP",
    "adaptive_matches_best_static",
    "quality_specs",
]

#: Default base seed for quality sweeps (distinct from tables' and chaos').
QUALITY_BASE_SEED = 20011000


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


def adaptive_matches_best_static(
    cells: Sequence[Cell],
    adaptive: str = "adaptive",
    tolerance: float = 1e-9,
) -> bool:
    """The adaptive gate: at every (loss, intensity, replication) point,
    the adaptive algorithm's missed-alert rate is ≤ every static
    algorithm's.  With shared per-point seeds this is exact — the recall
    guard pins the adaptive's detected-event set to the arrival stream's
    whole event set — so ``tolerance`` only absorbs float summation."""
    by_point: dict[tuple, list[Cell]] = {}
    for cell in cells:
        key = (cell["front_loss"], cell["intensity"], cell["replication"])
        by_point.setdefault(key, []).append(cell)
    seen_adaptive = False
    for group in by_point.values():
        adaptives = [c for c in group if c["algorithm"] == adaptive]
        statics = [c for c in group if c["algorithm"] != adaptive]
        if not adaptives or not statics:
            continue
        seen_adaptive = True
        best_static = min(c["missed_rate"] for c in statics)
        if adaptives[0]["missed_rate"] > best_static + tolerance:
            return False
    return seen_adaptive


def _pooled(key: str) -> Column:
    """An event count summed over the cell's trials."""
    return Column(
        key, read=lambda _tally, reports: sum(r.quality[key] for r in reports)
    )


def _rate(name, header, width, per_trial, empty) -> Column:
    """A trial-mean rate (each trial weighted equally, like the chaos
    sweep's mean miss fraction), rounded to 6 digits in the document."""
    return Column(
        name, header, width, f"{{:>{width}.3f}}",
        read=lambda _tally, reports: trial_mean(
            (per_trial(r.quality) for r in reports), empty
        ),
        digits=6,
    )


def _latencies(reports) -> list[float]:
    return [x for r in reports for x in r.quality["latency_samples"]]


def _latency(name: str, header: str, q: float) -> Column:
    """A percentile of the pooled latency samples (None = no detections)."""

    def read(_tally, reports) -> float | None:
        samples = _latencies(reports)
        return percentiles(samples, (q,))[0] if samples else None

    return Column(name, header, 8, "{:>8.2f}", f"{'-':>8}", read)


QUALITY_SWEEP = Sweep(
    name="quality",
    help="sweep alert quality (precision/recall/duplicates/latency vs "
    "ground truth) over algorithm x loss x fault intensity, with the "
    "adaptive-vs-static missed-alert gate",
    params=(
        Param("losses", (0.0, 0.15, 0.3), key="front_loss",
              help="front-link loss probabilities"),
        Param("intensities", (0.0, 0.5, 1.0, 2.0), key="intensity",
              help="chaos knob values scaling the default fault profile "
              "(includes delay spikes, so this is also the delay axis)"),
        Param("algorithms", ("AD-1", "AD-2", "AD-3", "AD-4", "adaptive"), str,
              key="algorithm",
              help="AD algorithms to compare (same seeds per grid point)"),
        Param("trials", 20, int),
        Param("row", "aggressive", str,
              choices=sorted({*ROW_ORDER, *DIVERSITY_ROWS}),
              help="scenario row (historical rows separate the algorithms "
              "most; diversity rows need --matrix multi for "
              "zipfian/correlated)"),
        Param("matrix", "single", str, choices=("single", "multi")),
        Param("n_updates", 30, int, flag="--updates"),
        Param("replication", 2, int),
    ),
    point=("algorithm", "front_loss", "intensity", "replication"),
    specs=quality_specs,
    columns=(
        Column("front_loss", "loss", 5, "{:>5g}"),
        Column("intensity", "chaos", 6, "{:>6g}"),
        Column("algorithm", "algorithm", 9, "{:>9}"),
        Column("trials", read=lambda _tally, reports: len(reports)),
        *map(_pooled, (
            "expected", "detected", "duplicates", "false_alerts", "displayed"
        )),
        _rate("precision", "precision", 10,
              lambda q: q["detected"] / q["displayed"] if q["displayed"] else 1.0,
              1.0),
        _rate("recall", "recall", 7,
              lambda q: q["detected"] / q["expected"] if q["expected"] else 1.0,
              1.0),
        _rate("missed_rate", "missed", 7,
              lambda q: (q["expected"] - q["detected"]) / q["expected"]
              if q["expected"] else 0.0,
              0.0),
        _rate("duplicate_rate", "dup", 6,
              lambda q: q["duplicates"] / q["displayed"] if q["displayed"] else 0.0,
              0.0),
        _rate("false_rate", "false", 6,
              lambda q: q["false_alerts"] / q["displayed"] if q["displayed"] else 0.0,
              0.0),
        _latency("latency_p50", "lat-p50", 50.0),
        _latency("latency_p99", "lat-p99", 99.0),
        Column("latency_samples",
               read=lambda _tally, reports: len(_latencies(reports))),
    ),
    claim=adaptive_matches_best_static,
    claim_line="adaptive missed-alert rate <= best static at every point: {}",
    heading=("matrix", "row", "trials", "n_updates"),
)
