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

__all__ = ["TablePlan", "plan_table", "tabulate"]

#: Seed offset separating the short-trace completeness batch from the
#: main batch.
COMPLETENESS_SEED_OFFSET = 7_000_000


@dataclass(frozen=True)
class TablePlan:
    """The full trial matrix for one table, in canonical order."""

    table_id: str
    algorithm: str
    multi_variable: bool
    trials: int
    specs: tuple[TrialSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)


def plan_table(
    table_id: str,
    trials: int = 100,
    n_updates: int = 30,
    base_seed: int = 20010800,
    completeness_trials: int | None = None,
    completeness_n_updates: int = 8,
    collect_counters: bool = False,
    faults=None,
    kernel: str = "array",
) -> TablePlan:
    """Lay out every trial of a table experiment as TrialSpecs.

    Seeds are stable per-cell offsets from ``zlib.crc32``
    (process-independent, unlike ``hash()``, which PYTHONHASHSEED
    randomises), the completeness batch displaced by
    :data:`COMPLETENESS_SEED_OFFSET`.

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

    specs: list[TrialSpec] = []
    for row in ROW_ORDER:
        cell_offset = zlib.crc32(f"{table_id}/{row}".encode()) % 100_000
        for trial in range(trials):
            specs.append(
                TrialSpec(
                    matrix, row, algorithm, base_seed + cell_offset + trial,
                    n_updates, collect_counters=collect_counters,
                    faults=faults, kernel=kernel,
                )
            )
        for trial in range(completeness_trials):
            specs.append(
                TrialSpec(
                    matrix,
                    row,
                    algorithm,
                    base_seed + COMPLETENESS_SEED_OFFSET + cell_offset + trial,
                    completeness_n_updates,
                    collect_counters=collect_counters,
                    faults=faults,
                    kernel=kernel,
                )
            )
    return TablePlan(table_id, algorithm, multi, trials, tuple(specs))


def tabulate(plan: TablePlan, reports: list[PropertyReport]) -> "TableResult":
    """Fold spec-ordered reports back into a TableResult."""
    from repro.analysis.tables import TableResult

    if len(reports) != len(plan.specs):
        raise ValueError(
            f"{len(reports)} reports for {len(plan.specs)} planned trials"
        )
    result = TableResult(
        plan.table_id, plan.algorithm, plan.multi_variable, plan.trials
    )
    tallies = {row: PropertyTally() for row in ROW_ORDER}
    for spec, report in zip(plan.specs, reports):
        tallies[spec.row].add(report, seed=spec.seed)
    result.tallies.update(tallies)
    return result
