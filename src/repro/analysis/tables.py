"""Regenerating the paper's property tables (Tables 1–3 and the AD-3/AD-4/
AD-6 variants described in §4.3, §4.4 and §5.2).

A *table* here is: for each scenario row, run many randomized trials of a
two-CE system under one AD algorithm, decide the three properties for
every trial, and mark the cell ``✓`` if no violation was ever witnessed
and ``✗`` otherwise.  ``✓`` cells correspond to the paper's theorems
(proved to always hold); ``✗`` cells are existence claims for which each
measured ✗ retains a counterexample seed.

The expected grids below transcribe the paper:

* Table 1 — single variable, Algorithm AD-1 (Theorems 1–4);
* Table 2 — single variable, Algorithm AD-2 (§4.2);
* AD-3 — "very similar to Table 1 except that the last row (Aggressive
  Triggering) is also consistent" (§4.3);
* AD-4 — "very similar to Table 2 except that Aggressive Triggering also
  becomes consistent" (§4.4);
* Table 3 — multi variable, Algorithm AD-5 (Lemmas 4–6);
* AD-6 — "the same as Table 3 except that the last row is also
  consistent" (§5.2);
* AD-1 multi-variable — "neither ordered nor consistent (hence not
  complete either)" (Theorem 10).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.engine.core import INLINE_ENGINE, TrialEngine
from repro.engine.plan import plan_table, tabulate
from repro.props.report import PropertyTally
from repro.workloads.scenarios import ROW_ORDER

__all__ = [
    "EXPECTED_GRIDS",
    "TableResult",
    "build_table",
    "render_table",
    "grid_matches",
]

#: (ordered, complete, consistent) per row; transcribed from the paper.
Grid = Mapping[str, tuple[bool, bool, bool]]

EXPECTED_GRIDS: dict[str, Grid] = {
    # Table 1: single variable under AD-1.
    "table1": {
        "lossless": (True, True, True),
        "non-historical": (False, True, True),
        "conservative": (False, False, True),
        "aggressive": (False, False, False),
    },
    # Table 2: single variable under AD-2.
    "table2": {
        "lossless": (True, True, True),
        "non-historical": (True, False, True),
        "conservative": (True, False, True),
        "aggressive": (True, False, False),
    },
    # §4.3: AD-3 = Table 1 with the aggressive row also consistent.
    "ad3": {
        "lossless": (True, True, True),
        "non-historical": (False, True, True),
        "conservative": (False, False, True),
        "aggressive": (False, False, True),
    },
    # §4.4: AD-4 = Table 2 with the aggressive row also consistent.
    "ad4": {
        "lossless": (True, True, True),
        "non-historical": (True, False, True),
        "conservative": (True, False, True),
        "aggressive": (True, False, True),
    },
    # Table 3: multi variable under AD-5.
    "table3": {
        "lossless": (True, False, True),
        "non-historical": (True, False, True),
        "conservative": (True, False, True),
        "aggressive": (True, False, False),
    },
    # §5.2: AD-6 = Table 3 with the aggressive row also consistent.
    "ad6": {
        "lossless": (True, False, True),
        "non-historical": (True, False, True),
        "conservative": (True, False, True),
        "aggressive": (True, False, True),
    },
    # Theorem 10: multi variable under AD-1 guarantees nothing.
    "ad1-multi": {
        "lossless": (False, False, False),
        "non-historical": (False, False, False),
        "conservative": (False, False, False),
        "aggressive": (False, False, False),
    },
}

#: Which AD algorithm each experiment id runs, and on which scenario matrix.
TABLE_CONFIG: dict[str, tuple[str, bool]] = {
    "table1": ("AD-1", False),
    "table2": ("AD-2", False),
    "ad3": ("AD-3", False),
    "ad4": ("AD-4", False),
    "table3": ("AD-5", True),
    "ad6": ("AD-6", True),
    "ad1-multi": ("AD-1", True),
}


@dataclass
class TableResult:
    """Measured grid for one table experiment."""

    table_id: str
    algorithm: str
    multi_variable: bool
    trials_per_cell: int
    tallies: dict[str, PropertyTally] = field(default_factory=dict)

    def measured_grid(self) -> dict[str, tuple[bool | None, bool | None, bool | None]]:
        return {
            row: tuple(tally.cell().values())
            for row, tally in self.tallies.items()
        }

    def matches_paper(self) -> bool:
        return grid_matches(self.measured_grid(), EXPECTED_GRIDS[self.table_id])


def grid_matches(measured: Mapping[str, tuple], expected: Grid) -> bool:
    """True iff every decided cell agrees with the paper (None = undecided)."""
    for row, expected_cell in expected.items():
        measured_cell = measured.get(row)
        if measured_cell is None:
            return False
        for got, want in zip(measured_cell, expected_cell):
            if got is not None and got != want:
                return False
    return True


def build_table(
    table_id: str,
    trials: int = 100,
    n_updates: int = 30,
    base_seed: int = 20010800,
    completeness_trials: int | None = None,
    completeness_n_updates: int = 8,
    engine: TrialEngine = INLINE_ENGINE,
    collect_counters: bool = False,
) -> TableResult:
    """Run the full trial matrix for one table experiment.

    For multi-variable tables the exact completeness oracle is only
    tractable on short traces, so an extra batch of
    ``completeness_trials`` runs with ``completeness_n_updates`` readings
    per variable is folded into the same tallies (the main batch's
    completeness checks are skipped automatically when the interleaving
    count explodes).  The grid-walk checker decides 8 readings per
    variable comfortably — the enumeration it replaced capped this knob
    at 5.

    The matrix is laid out by :func:`repro.engine.plan.plan_table` and
    executed on ``engine`` (inline by default), so the tallies are
    identical whatever its pool size; one pooled engine can serve several
    tables.
    """
    plan = plan_table(
        table_id,
        trials=trials,
        n_updates=n_updates,
        base_seed=base_seed,
        completeness_trials=completeness_trials,
        completeness_n_updates=completeness_n_updates,
        collect_counters=collect_counters,
    )
    return tabulate(plan, engine.run(plan.specs))


_CHECK = "✓"
_CROSS = "✗"


def _mark(value: bool | None) -> str:
    if value is None:
        return "?"
    return _CHECK if value else _CROSS


def render_table(result: TableResult) -> str:
    """Render a measured-vs-paper grid as fixed-width text."""
    expected = EXPECTED_GRIDS[result.table_id]
    header = (
        f"{result.table_id}: scenario matrix under {result.algorithm} "
        f"({'multi' if result.multi_variable else 'single'}-variable, "
        f"{result.trials_per_cell}+ trials/cell)"
    )
    lines = [header, "-" * len(header)]
    lines.append(
        f"{'Scenario':<16} {'Ord.':>10} {'Comp.':>10} {'Cons.':>10}   paper / measured"
    )
    agreement = True
    measured = result.measured_grid()
    for row in ROW_ORDER:
        cells = []
        for got, want in zip(measured[row], expected[row]):
            ok = got is None or got == want
            agreement = agreement and ok
            cells.append(f"{_mark(want)}/{_mark(got)}{'' if ok else ' !'}")
        lines.append(
            f"{row:<16} {cells[0]:>10} {cells[1]:>10} {cells[2]:>10}"
        )
    lines.append(f"paper agreement: {'YES' if agreement else 'NO'}")
    return "\n".join(lines)
