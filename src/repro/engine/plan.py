"""Planning the trial matrix of a table experiment.

One place owns the spec layout — which (row, seed, n_updates) trials a
table comprises and in what order — so the table builder, the CLI and
the benchmark harness cannot drift apart on seed derivation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.spec import TrialSpec
from repro.props.report import PropertyReport, PropertyTally
from repro.workloads.scenarios import ROW_ORDER

if TYPE_CHECKING:  # imported lazily at runtime (analysis imports us back)
    from repro.analysis.tables import TableResult

__all__ = ["TablePlan", "cell_specs", "plan_table", "tabulate"]

#: Seed offset separating the short-trace completeness batch from the
#: main batch.
COMPLETENESS_SEED_OFFSET = 7_000_000


def cell_specs(
    key: str,
    base_seed: int,
    trials: int,
    matrix: str,
    row: str,
    algorithm: str,
    n_updates: int,
    **knobs,
) -> list[TrialSpec]:
    """The specs of the grid cell named ``key``, in ascending-seed order:
    one scenario cell on ``trials`` consecutive seeds from ``base_seed``
    plus a stable per-cell offset.

    The offset is ``zlib.crc32`` (process-independent, unlike ``hash()``,
    which PYTHONHASHSEED randomises), so the key string *is* the seed
    block: cells with different keys never share trials, cells that
    share a key replay identical schedules, and any witness seed pins
    down its exact trial.
    """
    start = base_seed + zlib.crc32(key.encode()) % 100_000
    return [
        TrialSpec(matrix, row, algorithm, start + trial, n_updates, **knobs)
        for trial in range(trials)
    ]


@dataclass(frozen=True)
class TablePlan:
    """The full trial matrix for one table, in canonical order."""

    table_id: str
    algorithm: str
    multi_variable: bool
    trials: int
    specs: tuple[TrialSpec, ...]


def plan_table(
    table_id: str,
    trials: int = 100,
    n_updates: int = 30,
    base_seed: int = 20010800,
    completeness_trials: int | None = None,
    completeness_n_updates: int = 8,
    collect_counters: bool = False,
    faults=None,
) -> TablePlan:
    """Lay out every trial of a table experiment as TrialSpecs.

    Each row is one :func:`cell_specs` block, the completeness batch the
    same block displaced by :data:`COMPLETENESS_SEED_OFFSET`.

    ``collect_counters`` runs every trial under a CountersTracer so the
    folded tallies carry aggregated per-stage observability counters
    (tracing never perturbs results — verdicts are unchanged).

    ``faults`` (a :class:`~repro.faults.plan.FaultProfile`) rides on
    every spec, so any table can be regenerated "under chaos" with the
    same seed derivation as its clean counterpart.
    """
    from repro.analysis.tables import TABLE_CONFIG

    algorithm, multi = TABLE_CONFIG[table_id]
    matrix = "multi" if multi else "single"
    if completeness_trials is None:
        completeness_trials = trials if multi else 0

    batches = (
        (base_seed, trials, n_updates),
        (
            base_seed + COMPLETENESS_SEED_OFFSET,
            completeness_trials,
            completeness_n_updates,
        ),
    )
    specs: list[TrialSpec] = []
    for row in ROW_ORDER:
        for base, count, length in batches:
            specs += cell_specs(
                f"{table_id}/{row}", base, count, matrix, row, algorithm,
                length, collect_counters=collect_counters, faults=faults,
            )
    return TablePlan(table_id, algorithm, multi, trials, tuple(specs))


def tabulate(plan: TablePlan, reports: list[PropertyReport]) -> "TableResult":
    """Fold spec-ordered reports back into a TableResult."""
    from repro.analysis.tables import TableResult

    if len(reports) != len(plan.specs):
        raise ValueError(
            f"{len(reports)} reports for {len(plan.specs)} planned trials"
        )
    tallies = {row: PropertyTally() for row in ROW_ORDER}
    for spec, report in zip(plan.specs, reports):
        tallies[spec.row].add(report, seed=spec.seed)
    return TableResult(
        plan.table_id, plan.algorithm, plan.multi_variable, plan.trials, tallies
    )
