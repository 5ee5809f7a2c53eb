"""Process-level helpers: small-sample statistics and the collector scope.

The callers (the sweeps' columns, ``benchmarks/bench_latency.py``'s
pooled ``alert_quality`` latency samples, the server's result
percentiles) each summarise a few thousand floats,
so these are plain Python over the standard library — no optional
numeric dependency, one code path.
:func:`percentiles` interpolates linearly at the fractional rank
``q/100 * (n-1)`` — the default of the array libraries these numbers
were first published with, so they keep the definition readers expect —
and reads every rank a caller asks for from one sort.

:func:`collector_paused` is the one place the cyclic collector is
switched: a batch's ``Update`` → ``HistorySnapshot`` → ``Alert`` graph is
acyclic and dies with the batch's result, so a generational collection
mid-batch re-walks survivors and frees nothing (DESIGN.md, *Collector
policy*).
"""

from __future__ import annotations

import gc
import threading
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager

__all__ = [
    "collector_paused",
    "mean",
    "percentiles",
]


#: Open ``collector_paused`` scopes in the process, and the collector
#: state the first of them found.  The switch is process-wide, so the
#: count is too: scopes on other threads or tasks may overlap without
#: nesting, and only the last one out restores the state.
_pause_lock = threading.Lock()
_pause_depth = 0
_pause_found_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the ``with`` body.

    Restores the state found when no scope was open, not "on": nested
    scopes and a caller that had already disabled collection both come
    out as they went in, and a scope that ends while another (on any
    thread or task) is still open leaves collection off.  Reference
    counting still frees everything acyclic as it dies.
    """
    global _pause_depth, _pause_found_enabled
    with _pause_lock:
        if not _pause_depth:
            _pause_found_enabled = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if not _pause_depth and _pause_found_enabled:
                gc.enable()


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.  ``values`` must be non-empty."""
    if not len(values):
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def percentiles(values: Sequence[float], qs: Iterable[float]) -> list[float]:
    """The ``q``-th percentile for each ``q`` of ``qs``, by linear
    interpolation over one sort of ``values``.

    Rank ``r = q/100 * (n-1)`` over the sorted values, result
    ``v[floor(r)] + (r - floor(r)) * (v[ceil(r)] - v[floor(r)])``; so
    ``q = 100`` is the largest value.
    """
    n = len(values)
    if not n:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(map(float, values))
    out = []
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        rank = q / 100.0 * (n - 1)
        lower = int(rank)
        upper = min(lower + 1, n - 1)
        fraction = rank - lower
        out.append(ordered[lower] + fraction * (ordered[upper] - ordered[lower]))
    return out
