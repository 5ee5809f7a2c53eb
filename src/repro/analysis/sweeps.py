"""The loss and replication ablations: violation rates vs one parameter.

The paper's grids answer "can this property be violated?"; these sweeps
answer "how often, as a function of loss rate / replication degree?" —
the ablation data behind the design choices DESIGN.md calls out (loss
0.3, 2 CEs) and the quantitative texture of the ✗ cells.

Both are :class:`~repro.engine.sweep.Sweep` declarations, run by
``benchmarks/bench_ablation.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial

from repro.displayers.registry import algorithm_info
from repro.engine.spec import TrialSpec
from repro.engine.sweep import Cell, Column, Param, Sweep

__all__ = ["LOSS_SWEEP", "REPLICATION_SWEEP", "guarantees_hold"]


def _specs(
    algorithm: str,
    value: float,
    trials: int,
    row: str,
    n_updates: int,
    knob: str,
    start: Callable[[float], int],
) -> list[TrialSpec]:
    """One point's trials: ``trials`` consecutive seeds from
    ``start(value)``, with the spec knob ``knob`` set to ``value`` (the
    row's own setting is overridden)."""
    return [
        TrialSpec("single", row, algorithm, start(value) + trial, n_updates,
                  **{knob: value})
        for trial in range(trials)
    ]


def guarantees_hold(cells: Sequence[Cell]) -> bool:
    """The paper's ✓ cells over an ablation: no point violates a property
    its algorithm guarantees.  The paper analyses two CEs and notes the
    analysis "can be easily extended"; at higher replication this checks
    that more replicas bring more interleavings, not new failure modes."""
    for cell in cells:
        info = algorithm_info(cell["algorithm"])
        if info.guarantees_ordered and cell["unordered_rate"]:
            return False
        if info.guarantees_consistent and cell["inconsistent_rate"]:
            return False
    return True


def _rate(violations: str, checked: str) -> Callable:
    def read(tally, _reports) -> float | None:
        decided = getattr(tally, checked)
        return getattr(tally, violations) / decided if decided else None

    return read


def _ablation(
    knob: str,
    values: Param,
    algorithms: tuple[str, ...],
    start: Callable[[float], int],
) -> Sweep:
    """Violation rates vs the spec knob ``knob``, one series per
    algorithm; point ``value`` is the knob's value."""
    return Sweep(
        name=knob,
        help=f"violation rates vs {knob}, per algorithm",
        params=(
            Param("algorithms", algorithms, str, key="algorithm"),
            values,
            Param("trials", 60, int),
            Param("row", "aggressive", str),
            Param("n_updates", 30, int, flag="--updates"),
        ),
        point=("algorithm", "value"),
        specs=partial(_specs, knob=knob, start=start),
        columns=(
            Column("parameter", "param", 12, "{:>12}",
                   read=lambda _tally, _reports: knob),
            Column("value", "value", 7, "{:>7g}"),
            Column("algorithm", "algo", 6, "{:>6}"),
            Column(
                "unordered_rate", "unordered", 9, "{:>9.1%}",
                read=lambda tally, _reports:
                    tally.ordered_violations / max(tally.runs, 1),
            ),
            Column("incomplete_rate", "incomplete", 10, "{:>10.1%}",
                   f"{'n/a':>10}",
                   _rate("completeness_violations", "completeness_checked")),
            Column("inconsistent_rate", "inconsistent", 12, "{:>12.1%}",
                   f"{'n/a':>12}",
                   _rate("consistency_violations", "consistency_checked")),
        ),
        claim=guarantees_hold,
        claim_line="no point violates a property its algorithm guarantees: {}",
    )


LOSS_SWEEP = _ablation(
    "front_loss",
    Param("losses", (0.0, 0.1, 0.2, 0.3, 0.5), key="value"),
    ("AD-1", "AD-2", "AD-3", "AD-4"),
    lambda loss: 515000 + int(loss * 10_000),
)
REPLICATION_SWEEP = _ablation(
    "replication",
    Param("replications", (1, 2, 3, 4), int, key="value"),
    ("AD-1", "AD-4"),
    lambda count: 525000 + count * 97,
)
