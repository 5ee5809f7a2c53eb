"""Alert-quality sweep: per-AD precision/recall curves plus the adaptive gates.

Sweeps every static AD and the adaptive AD-7 over front-link loss ×
chaos intensity on the historical *aggressive* row (degree-2 deltas:
the row where the algorithms actually disagree on duplicates), scoring
each run against the single-replica ground truth.  Two claims are
asserted:

* the adaptive algorithm's missed-alert rate matches or beats every
  static algorithm at **every** sweep point (exact, not statistical —
  each point runs identical seeds across algorithms), and
* its mean duplicate rate stays at or below AD-1's (the recall guard is
  not just a pass-through in disguise).
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.quality import QUALITY_SWEEP

ROW = "aggressive"
TRIALS = 20
N_UPDATES = 30


def mean_duplicate_rates(cells) -> dict[str, float]:
    """Sweep-wide mean duplicate rate per algorithm (equal cell weight)."""
    rates: dict[str, list[float]] = {}
    for cell in cells:
        rates.setdefault(cell["algorithm"], []).append(cell["duplicate_rate"])
    return {name: sum(values) / len(values) for name, values in rates.items()}


def test_quality_sweep(benchmark):
    cells = benchmark.pedantic(
        lambda: QUALITY_SWEEP.run(trials=TRIALS, row=ROW, n_updates=N_UPDATES),
        rounds=1,
        iterations=1,
    )
    matches = QUALITY_SWEEP.claim(cells)
    duplicates = mean_duplicate_rates(cells)
    save_result(
        "quality",
        f"quality sweep: row={ROW} matrix=single trials={TRIALS} "
        f"updates={N_UPDATES}\n\n"
        + QUALITY_SWEEP.render(cells)
        + "\n\nadaptive missed-alert rate <= best static everywhere: "
        + ("YES" if matches else "NO")
        + "\nmean duplicate rate: "
        + "  ".join(
            f"{name}={rate:.3f}" for name, rate in sorted(duplicates.items())
        ),
    )
    assert matches
    assert duplicates["adaptive"] <= duplicates["AD-1"], duplicates
