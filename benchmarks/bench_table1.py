"""Table 1 — single-variable systems under Algorithm AD-1.

Paper claim (Theorems 1-4):

    Scenario            Ord.  Comp.  Cons.
    Lossless             ✓     ✓      ✓
    Lossy non-his.       ✗     ✓      ✓
    Lossy his. cons.     ✗     ✗      ✓
    Lossy his. aggr.     ✗     ✗      ✗

This bench runs the full randomized trial matrix (two CEs, lossy/lossless
front links, paper conditions c1/c2/c3) and regenerates the grid.  ✓ rows
are checked over every trial; each measured ✗ retains a counterexample
seed in the saved artifact.
"""

from benchmarks.conftest import save_result
from repro.analysis.tables import build_table, render_table
from repro.engine import TrialEngine

TRIALS = 150
N_UPDATES = 40


def _build():
    with TrialEngine(processes="auto") as engine:
        return build_table(
            "table1", trials=TRIALS, n_updates=N_UPDATES, engine=engine
        )


def test_table1(benchmark):
    result = benchmark.pedantic(_build, rounds=1, iterations=1)
    text = render_table(result)
    for row, tally in result.tallies.items():
        text += f"\n  [{row}] witnesses: {tally.witnesses or 'none needed'}"
    save_result("table1", text)
    assert result.matches_paper(), text
