"""Unit tests for the rate-estimate statistics helpers."""

import functools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import (
    estimate_rate,
    rates_differ,
    wilson_interval,
)


class TestWilsonInterval:
    def test_known_value(self):
        # Classic check: 5/10 at 95% -> approximately (0.237, 0.763).
        low, high = wilson_interval(5, 10, 0.95)
        assert low == pytest.approx(0.2366, abs=1e-3)
        assert high == pytest.approx(0.7634, abs=1e-3)

    def test_zero_successes_has_zero_lower_bound(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert 0.0 < high < 0.05

    def test_all_successes_has_one_upper_bound(self):
        low, high = wilson_interval(100, 100)
        assert high == 1.0
        assert 0.95 < low < 1.0

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_more_trials_tighter_interval(self):
        low_small, high_small = wilson_interval(5, 10)
        low_big, high_big = wilson_interval(500, 1000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_higher_confidence_wider_interval(self):
        narrow = wilson_interval(5, 10, 0.8)
        wide = wilson_interval(5, 10, 0.99)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)
        with pytest.raises(ValueError):
            wilson_interval(1, 3, confidence=1.5)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_interval_contains_point_estimate(self, successes, extra):
        trials = successes + extra
        if trials == 0:
            return
        low, high = wilson_interval(successes, trials)
        p = successes / trials
        assert low <= p <= high
        assert 0.0 <= low <= high <= 1.0


class TestEstimateRate:
    def test_renders(self):
        estimate = estimate_rate(3, 10)
        text = str(estimate)
        assert "30.0%" in text
        assert "(3/10)" in text

    def test_point(self):
        assert estimate_rate(0, 0).point == 0.0
        assert estimate_rate(7, 10).point == pytest.approx(0.7)


class TestRatesDiffer:
    def test_clearly_different(self):
        assert rates_differ(90, 100, 10, 100)

    def test_identical_rates_not_different(self):
        assert not rates_differ(50, 100, 50, 100)

    def test_small_samples_inconclusive(self):
        assert not rates_differ(2, 3, 1, 3)

    def test_zero_trials(self):
        assert not rates_differ(0, 0, 5, 10)

    def test_degenerate_pooled_variance(self):
        assert not rates_differ(0, 50, 0, 50)
        assert rates_differ(50, 50, 0, 50)


@functools.cache
def _top_level_modules_after_importing_the_cli() -> frozenset[str]:
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; "
         "print(*sorted({m.split('.')[0] for m in sys.modules}))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return frozenset(result.stdout.split())


def test_importing_the_cli_does_not_import_scipy():
    # scipy is in no extra of pyproject.toml; importing it by accident
    # costs 0.75 s and 65 MB in every process, `repro serve` included.
    assert "scipy" not in _top_level_modules_after_importing_the_cli()


def test_importing_the_cli_imports_neither_networkx_nor_numpy():
    # networkx serves one function only tests call (imported inside it);
    # numpy is no dependency at all.  Together 0.23 s and 27 MB of every
    # process, `repro serve` included.
    loaded = _top_level_modules_after_importing_the_cli()
    assert "repro" in loaded
    assert not {"networkx", "numpy"} & loaded
