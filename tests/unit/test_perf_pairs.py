"""The verdict rule of ``tools/perf_pairs.py`` (CONTRIBUTING.md's house
rule for claiming or ruling out a performance change), on hand-made
paired samples; the runs themselves are the benchmark's business."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.2, 99.8]


def shifted(by, values=PARENT):
    return [value * by for value in values]


@pytest.mark.parametrize("change, better, bound, expected", [
    (shifted(1.2), "higher", 0.15, (10, "gain")),
    (shifted(0.8), "lower", 0.20, (10, "gain")),
    # Every pair won, but by less than the parent's own quartile distance.
    (shifted(1.001), "higher", 0.15, (10, "within bound")),
    (shifted(0.95), "higher", 0.15, (0, "within bound")),
    (shifted(0.8), "higher", 0.15, (0, "WORSE")),
    (shifted(1.3), "lower", 0.25, (0, "WORSE")),
    # Eight wins of ten is not nine tenths.
    (shifted(1.2, PARENT[:8]) + shifted(0.99, PARENT[8:]), "higher", 0.15,
     (8, "within bound")),
])
def test_verdicts(change, better, bound, expected):
    assert perf_pairs.verdict(PARENT, change, better, bound) == expected


def test_a_parent_noisier_than_the_bound_is_unresolved_unless_swept():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert perf_pairs.verdict(noisy, list(reversed(noisy)), "higher", 0.15)[1] == "unresolved"
    assert perf_pairs.verdict(noisy, [v + 100.0 for v in noisy], "higher", 0.15)[1] == "gain"
    # Every change run beats every parent run, but by less than the
    # parent's quartile distance: no gain, and nothing left to resolve.
    split = [0.0] * 5 + [10.0] * 5
    assert perf_pairs.verdict(split, [11.0] * 10, "higher", 0.15) == (10, "within bound")
    # Ties count for neither side.
    assert perf_pairs.verdict([1.0] * 10, [1.0] * 10, "lower", 0.1) == (0, "within bound")
