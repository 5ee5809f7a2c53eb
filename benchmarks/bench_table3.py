"""Table 3 and §5.2 — multi-variable systems under AD-5, AD-6, and AD-1.

Paper claims:

* Table 3 (AD-5, Lemmas 4-6):

      Scenario            Ord.  Comp.  Cons.
      Lossless             ✓     ✗      ✓
      Lossy non-his.       ✓     ✗      ✓
      Lossy his. cons.     ✓     ✗      ✓
      Lossy his. aggr.     ✓     ✗      ✗

* AD-6 (§5.2): same but the aggressive row is also consistent.
* AD-1 (Theorem 10): neither ordered nor consistent (hence incomplete) —
  interleaving divergence alone breaks a multi-variable system.

Completeness cells use an extra batch of short-trace runs so the
exhaustive interleaving oracle is exact; the long-trace batch feeds the
orderedness/consistency cells.
"""

from benchmarks.conftest import save_result
from repro.analysis.tables import build_table, render_table
from repro.engine import TrialEngine

TRIALS = 60
N_UPDATES = 20
COMPLETENESS_TRIALS = 120
# The pruned DFS completeness checker decides 8 readings per variable
# comfortably; the enumeration it replaced capped this at 6.
COMPLETENESS_N = 8


def _build(table_id):
    with TrialEngine(processes="auto") as engine:
        return build_table(
            table_id,
            trials=TRIALS,
            n_updates=N_UPDATES,
            completeness_trials=COMPLETENESS_TRIALS,
            completeness_n_updates=COMPLETENESS_N,
            engine=engine,
        )


def test_table3_ad5(benchmark):
    result = benchmark.pedantic(lambda: _build("table3"), rounds=1, iterations=1)
    text = render_table(result)
    save_result("table3", text)
    assert result.matches_paper(), text


def test_ad6_grid(benchmark):
    result = benchmark.pedantic(lambda: _build("ad6"), rounds=1, iterations=1)
    text = render_table(result)
    save_result("ad6", text)
    assert result.matches_paper(), text


def test_ad1_multi_grid(benchmark):
    result = benchmark.pedantic(lambda: _build("ad1-multi"), rounds=1, iterations=1)
    text = render_table(result)
    save_result("ad1-multi", text)
    assert result.matches_paper(), text
