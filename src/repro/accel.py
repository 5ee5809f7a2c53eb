"""Optional-acceleration shims: numpy when present, ``array`` fallback.

The library's bulk numeric paths (latency aggregation, the benchmark
summaries) want vectorised primitives, but numpy is an *optional* extra
(``pip install repro[fast]``) — seed environments without it must
produce identical results through the pure-python fallbacks below.
Every helper here therefore has two implementations with one contract:

* the numpy path operates on ``numpy.ndarray``;
* the fallback operates on :class:`array.array` ('d') / plain lists and
  reproduces numpy's semantics exactly — in particular
  :func:`percentile` matches numpy's default *linear interpolation*
  (``q/100 * (n-1)`` fractional rank).

Code that needs numpy unconditionally (nothing in ``src/`` today) should
import :data:`np` and raise a helpful error when it is None rather than
importing numpy at module scope, so ``import repro`` never requires it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence

try:  # pragma: no cover - exercised via HAVE_NUMPY in both CI legs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

__all__ = [
    "np",
    "HAVE_NUMPY",
    "as_float_array",
    "mean",
    "median",
    "percentile",
]


def as_float_array(values: Iterable[float]):
    """Float container for bulk arithmetic: ndarray or ``array('d')``."""
    if HAVE_NUMPY:
        return np.asarray(list(values), dtype=float)
    return array("d", values)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.  ``values`` must be non-empty."""
    if not len(values):
        raise ValueError("mean of empty sequence")
    if HAVE_NUMPY:
        return float(np.asarray(values, dtype=float).mean())
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with numpy's default linear interpolation.

    Matches ``numpy.percentile(values, q)`` bit-for-bit on the fallback
    path: rank ``r = q/100 * (n-1)``, result
    ``v[floor(r)] + (r - floor(r)) * (v[ceil(r)] - v[floor(r)])`` over
    the sorted values.
    """
    n = len(values)
    if not n:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if HAVE_NUMPY:
        return float(np.percentile(np.asarray(values, dtype=float), q))
    ordered = sorted(float(v) for v in values)
    rank = q / 100.0 * (n - 1)
    lower = int(rank)
    upper = min(lower + 1, n - 1)
    fraction = rank - lower
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


def median(values: Sequence[float]) -> float:
    """The median (the 50th percentile; matches ``numpy.median``)."""
    return percentile(values, 50.0)
