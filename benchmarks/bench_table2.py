"""Table 2 — single-variable systems under Algorithm AD-2 (§4.2).

Paper claim: AD-2 makes every scenario ordered, at the cost of
completeness in all lossy rows (Theorem 6's tradeoff, Example 2):

    Scenario            Ord.  Comp.  Cons.
    Lossless             ✓     ✓      ✓
    Lossy non-his.       ✓     ✗      ✓
    Lossy his. cons.     ✓     ✗      ✓
    Lossy his. aggr.     ✓     ✗      ✗
"""

from benchmarks.conftest import save_result
from repro.analysis.tables import build_table, render_table
from repro.engine import TrialEngine

TRIALS = 150
N_UPDATES = 40


def _build():
    with TrialEngine(processes="auto") as engine:
        return build_table(
            "table2", trials=TRIALS, n_updates=N_UPDATES, engine=engine
        )


def test_table2(benchmark):
    result = benchmark.pedantic(_build, rounds=1, iterations=1)
    text = render_table(result)
    save_result("table2", text)
    assert result.matches_paper(), text
