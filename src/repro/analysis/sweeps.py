"""Parameter sweeps: violation rates as functions of system parameters.

The paper's grids answer "can this property be violated?"; these sweeps
answer "how often, as a function of loss rate / replication degree?" —
the ablation data behind the design choices DESIGN.md calls out (loss
0.3, 2 CEs) and the quantitative texture of the ✗ cells.

Used by ``benchmarks/bench_ablation.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.engine.core import INLINE_ENGINE, TrialEngine, fold_tally
from repro.engine.spec import SCENARIO_MATRICES, TrialSpec
from repro.props.report import PropertyTally
from repro.workloads.scenarios import Scenario

__all__ = ["SweepPoint", "loss_sweep", "replication_sweep", "render_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """Violation rates at one parameter setting."""

    parameter: str
    value: float
    algorithm: str
    trials: int
    unordered_rate: float
    incomplete_rate: float | None
    inconsistent_rate: float | None

    @staticmethod
    def from_tally(
        parameter: str, value: float, algorithm: str, tally: PropertyTally
    ) -> "SweepPoint":
        def rate(violations: int, checked: int) -> float | None:
            return violations / checked if checked else None

        return SweepPoint(
            parameter=parameter,
            value=value,
            algorithm=algorithm,
            trials=tally.runs,
            unordered_rate=tally.ordered_violations / max(tally.runs, 1),
            incomplete_rate=rate(
                tally.completeness_violations, tally.completeness_checked
            ),
            inconsistent_rate=rate(
                tally.consistency_violations, tally.consistency_checked
            ),
        )


def _registry_coordinates(scenario: Scenario) -> tuple[str, str]:
    """The (matrix, row) naming ``scenario`` in the module matrices.

    Sweep trials are :class:`~repro.engine.spec.TrialSpec` s, which name
    their scenario so that any process can re-resolve it.
    """
    for matrix, scenarios in SCENARIO_MATRICES.items():
        if scenarios.get(scenario.key) is scenario:
            return matrix, scenario.key
    raise ValueError(
        f"scenario {scenario.key!r} is not a row of "
        "repro.engine.spec.SCENARIO_MATRICES; sweeps run registered rows"
    )


def _sweep(
    parameter: str,
    values: Sequence[float],
    seed_of: Callable[[float], int],
    scenario: Scenario,
    algorithm: str,
    trials: int,
    n_updates: int,
    engine: TrialEngine,
) -> list[SweepPoint]:
    """One point per value of the spec knob named ``parameter``, each on
    ``trials`` seeds from ``seed_of(value)``, the series as one batch."""
    matrix, row = _registry_coordinates(scenario)

    def specs_of(value):
        start = seed_of(value)
        return [
            TrialSpec(
                matrix, row, algorithm, start + trial, n_updates,
                **{parameter: value},
            )
            for trial in range(trials)
        ]

    def fold(value, specs, reports):
        tally = fold_tally(specs, reports)
        return SweepPoint.from_tally(parameter, value, algorithm, tally)

    return engine.run_grid([(value,) for value in values], specs_of, fold)


def loss_sweep(
    scenario: Scenario,
    algorithm: str,
    loss_probs: Sequence[float],
    trials: int = 60,
    n_updates: int = 30,
    base_seed: int = 515000,
    engine: TrialEngine = INLINE_ENGINE,
) -> list[SweepPoint]:
    """Violation rates vs front-link loss probability.

    The scenario's own loss setting is overridden at each sweep point
    through the spec's ``front_loss`` knob.
    """
    return _sweep(
        "front_loss", loss_probs, lambda loss: base_seed + int(loss * 10_000),
        scenario, algorithm, trials, n_updates, engine,
    )


def replication_sweep(
    scenario: Scenario,
    algorithm: str,
    replications: Sequence[int],
    trials: int = 60,
    n_updates: int = 30,
    base_seed: int = 525000,
    engine: TrialEngine = INLINE_ENGINE,
) -> list[SweepPoint]:
    """Violation rates vs number of CEs.

    The paper analyses two CEs and notes the analysis "can be easily
    extended"; this sweep verifies the guarantees empirically at higher
    replication (✓ cells must stay clean — more replicas mean more
    interleavings, not new failure modes) and shows how much more often
    the ✗ cells bite.
    """
    return _sweep(
        "replication", replications, lambda count: base_seed + count * 97,
        scenario, algorithm, trials, n_updates, engine,
    )


def render_sweep(title: str, points: Sequence[SweepPoint]) -> str:
    """Fixed-width rendering of one sweep series."""

    def fmt(rate: float | None) -> str:
        return "   n/a" if rate is None else f"{rate:6.1%}"

    lines = [title]
    lines.append(
        f"{'param':>12} {'value':>7} {'algo':>6} {'unordered':>9} "
        f"{'incomplete':>10} {'inconsistent':>12}"
    )
    for p in points:
        lines.append(
            f"{p.parameter:>12} {p.value:>7g} {p.algorithm:>6} "
            f"{fmt(p.unordered_rate):>9} {fmt(p.incomplete_rate):>10} "
            f"{fmt(p.inconsistent_rate):>12}"
        )
    return "\n".join(lines)
