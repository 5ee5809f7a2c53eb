"""Alternating parent/change pairs of the repo benchmark, with verdicts.

The house rule (CONTRIBUTING.md): a change that claims or risks a
performance difference is measured against its parent with the
*unmodified* benchmark — at least ten pairs on seed 7, alternating which
side runs first, plus one seed not used while writing the change.  This
runs one workload and one seed of that::

    make perf-pairs BASE=HEAD~1 WORKLOAD=chaos-churn-grid [SEED=7] [N=10]

``BASE`` is exported (``git archive``) into a temporary directory, so
nothing is left in ``.git`` if the run is interrupted; the change is the
working tree this file sits in, uncommitted edits included.  Each side
runs its *own* ``benchmarks/perf/run.py``.  Per end-to-end metric the
table gives both medians, the parent's inter-quartile distance, the
pairs the change won (ties count for neither side) and a verdict:

``gain``          the change won >= 9/10 of the pairs and the medians
                  differ, the right way, by more than the parent's IQR;
``within bound``  no gain, and the change's median is no worse than the
                  parent's by more than the metric's ``BENCHMARK.json`` bound;
``unresolved``    the parent's own IQR is wider than that bound, so the
                  runs cannot tell (unless every change run beats every
                  parent run, which is reported as within bound);
``WORSE``         outside the bound.

Exit status 1 if any run failed its correctness check or any metric is
``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def quartile_distance(values: list[float]) -> float:
    """Q3 - Q1; unbounded for a single run, which shows no spread at all
    (so one pair can neither claim a gain nor rule a change out)."""
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """``(pairs the change won, verdict)`` for one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    iqr = quartile_distance(parent)
    if wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > iqr:
        return wins, "gain"
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return wins, "WORSE"
    clean_sweep = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and iqr / abs(p_med) > bound and not clean_sweep:
        return wins, "unresolved"
    return wins, "within bound"


def export(base: str, into: Path) -> None:
    archive = into / "base.tar"
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), base],
        check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    command = [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
               "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": 0, "metrics": {}}
    result["correct"] = result["correct"] and done.returncode == 0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per run (default: each tree's BENCHMARK.json)")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        export(args.base, Path(scratch))
        trees = {"parent": Path(scratch) / "tree", "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append(result)
            print(f"pair {pair + 1}/{args.pairs} ({order[0]} first)  " + "  ".join(
                f"{side} {'ok' if runs[side][-1]['correct'] else 'FAILED'}"
                for side in order), flush=True)

    ok = all(run["correct"] for side in runs.values() for run in side)
    print(f"\n{args.workload} seed {args.seed}: {args.pairs} pairs against {args.base}")
    print(f"{'metric':<16}{'unit':<6}{'parent':>12}{'change':>12}{'parent IQR':>12}"
          f"{'wins':>8}{'bound':>7}  verdict")
    samples = {
        spec["name"]: {
            side: [run["metrics"].get(spec["name"], {}).get("value") for run in runs[side]]
            for side in runs
        }
        for spec in contract["end_to_end"]
    }
    for spec in contract["end_to_end"]:
        name = spec["name"]
        parent, change = samples[name]["parent"], samples[name]["change"]
        if None in parent or None in change:
            print(f"{name:<16}{spec['unit']:<6}{'missing':>12}")
            ok = False
            continue
        wins, word = verdict(parent, change, spec["better"], spec["bound"])
        ok = ok and word != "WORSE"
        print(f"{name:<16}{spec['unit']:<6}{statistics.median(parent):>12.6g}"
              f"{statistics.median(change):>12.6g}{quartile_distance(parent):>12.4g}"
              f"{wins:>5}/{args.pairs:<2}{100 * spec['bound']:>6.0f}%  {word}")
    print("\nevery run, in pair order:")
    for name, sides in samples.items():
        for side, values in sides.items():
            print(f"{name:<16}{side:<8}" + " ".join(
                "-" if value is None else f"{value:.6g}" for value in values))
    failed = {side: sum(not run["correct"] for run in runs[side]) for side in runs}
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
