"""Ablations (not tables in the paper, but claims in its prose).

* **Loss sweep** — how violation rates scale with front-link loss, per
  algorithm.  The paper's grids say only which cells *can* be violated;
  this shows the ✗ cells growing from 0% (lossless, Theorem 1) with p,
  while the ✓ cells stay at exactly 0% at every p.
* **Replication sweep** — §2.1: "Analysis for systems with more than two
  CEs can be easily extended."  We verify the claim empirically: AD-4's
  guarantees stay intact at 3 and 4 replicas, while AD-1's violation
  rates *increase* with replication (more replicas = more conflicting
  retellings).
"""

from benchmarks.conftest import save_result
from repro.analysis.sweeps import LOSS_SWEEP, REPLICATION_SWEEP
from repro.engine import TrialEngine


def run_series(sweep, what: str):
    """Run ``sweep`` at its declared defaults (60 trials of 30 updates
    per point on the aggressive row) and render one titled table per
    algorithm; returns the cells per algorithm and the artifact text."""
    with TrialEngine(processes="auto") as engine:
        cells = sweep.run(engine)
    assert sweep.claim(cells), sweep.render(cells)
    series = {}
    for cell in cells:
        series.setdefault(cell["algorithm"], []).append(cell)
    text = "\n\n".join(
        f"{what} sweep, aggressive condition, {algorithm}\n"
        + sweep.render(points)
        for algorithm, points in series.items()
    )
    return series, text


def test_loss_ablation(benchmark):
    sweeps, text = benchmark.pedantic(
        lambda: run_series(LOSS_SWEEP, "loss"), rounds=1, iterations=1
    )
    save_result("ablation_loss", text)

    for algorithm, points in sweeps.items():
        lossless = points[0]
        # Theorem 1 at p=0 for every algorithm: nothing is violated.
        assert lossless["unordered_rate"] == 0.0, algorithm
        assert lossless["inconsistent_rate"] == 0.0, algorithm
    # The paper's guarantee columns stay at zero across the whole sweep:
    for point in sweeps["AD-2"]:
        assert point["unordered_rate"] == 0.0
    for point in sweeps["AD-3"]:
        assert point["inconsistent_rate"] == 0.0
    for point in sweeps["AD-4"]:
        assert point["unordered_rate"] == 0.0
        assert point["inconsistent_rate"] == 0.0
    # And AD-1's inconsistency grows with loss (monotone up to noise):
    ad1 = sweeps["AD-1"]
    assert ad1[-1]["inconsistent_rate"] > ad1[1]["inconsistent_rate"] >= 0.0


def test_replication_ablation(benchmark):
    sweeps, text = benchmark.pedantic(
        lambda: run_series(REPLICATION_SWEEP, "replication"),
        rounds=1,
        iterations=1,
    )
    save_result("ablation_replication", text)

    # One CE = the non-replicated system N: trivially ordered+consistent.
    ad1 = {p["value"]: p for p in sweeps["AD-1"]}
    assert ad1[1]["unordered_rate"] == 0.0
    assert ad1[1]["inconsistent_rate"] == 0.0
    # More replicas -> more conflicting retellings under AD-1:
    assert ad1[3]["inconsistent_rate"] >= ad1[2]["inconsistent_rate"] * 0.8
    assert ad1[2]["inconsistent_rate"] > 0.0
    # AD-4's guarantees extend beyond two CEs, as the paper asserts:
    for point in sweeps["AD-4"]:
        assert point["unordered_rate"] == 0.0
        assert point["inconsistent_rate"] == 0.0
