"""Summary statistics over small float samples: mean, median, percentile.

Four callers (``quality.metrics``, ``quality.sweep``,
``analysis.latency``, the server's result-frame percentiles) each
summarise a few thousand floats, so these are plain Python over the
standard library — no optional numeric dependency, one code path.
:func:`percentile` interpolates linearly at the fractional rank
``q/100 * (n-1)`` — the default of the array libraries these numbers
were first published with, so they keep the definition readers expect.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = [
    "mean",
    "median",
    "percentile",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.  ``values`` must be non-empty."""
    if not len(values):
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation.

    Rank ``r = q/100 * (n-1)`` over the sorted values, result
    ``v[floor(r)] + (r - floor(r)) * (v[ceil(r)] - v[floor(r)])``.
    """
    n = len(values)
    if not n:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(map(float, values))
    rank = q / 100.0 * (n - 1)
    lower = int(rank)
    upper = min(lower + 1, n - 1)
    fraction = rank - lower
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


def median(values: Sequence[float]) -> float:
    """The median (the 50th percentile)."""
    return percentile(values, 50.0)
