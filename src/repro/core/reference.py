"""The reference mapping ``T`` and the corresponding non-replicated system.

Section 3 models a CE as a function ``T`` mapping a sequence of updates to
a sequence of alerts.  The three system properties are all phrased against
``T`` applied to combined inputs:

* completeness compares ΦA against ``ΦT(U1 ⊔ U2)``;
* consistency asks for a ``U′ ⊑ U1 ⊔ U2`` with ``ΦA ⊆ ΦT(U′)``.

This module provides ``T`` as a pure function (:func:`apply_T`), the
per-variable ordered-union combinator for update traces
(:func:`combine_received`), and interleaving utilities needed by the
multi-variable definitions of Appendix C.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager

from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.evaluator import ConditionEvaluator
from repro.core.sequences import is_ordered, ordered_union, project_seqnos
from repro.core.update import Update

__all__ = [
    "apply_T",
    "ground_truth_alerts",
    "combine_received",
    "merge_single_variable",
    "interleavings",
    "count_interleavings",
    "is_interleaving_of",
    "reference_cache_info",
    "clear_reference_caches",
    "set_reference_cache_size",
    "reference_caches_disabled",
]


class _LRUCache:
    """A small content-keyed LRU used for memoizing reference results."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._data.get(key, _MISS)
        if entry is _MISS:
            self.misses += 1
            return _MISS
        self.hits += 1
        self._data.move_to_end(key)
        return entry

    def put(self, key, value) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_MISS = object()

#: Default entry counts for the two caches; override per-process with
#: :func:`set_reference_cache_size`.
DEFAULT_T_CACHE_SIZE = 8192
DEFAULT_COMBINE_CACHE_SIZE = 2048

_T_CACHE = _LRUCache(DEFAULT_T_CACHE_SIZE)
_COMBINE_CACHE = _LRUCache(DEFAULT_COMBINE_CACHE_SIZE)
_CACHES_ENABLED = True


def _fingerprint(updates: Sequence[Update]) -> tuple:
    """A value-including content key for an update sequence.

    ``Update.__eq__``/``__hash__`` deliberately ignore ``value`` (same
    seqno ⇒ same snapshot *within* a correct run), but across trials the
    same (varname, seqno) pair carries different randomized values, so the
    cache key must include them explicitly.
    """
    return tuple((u.varname, u.seqno, u.value) for u in updates)


def reference_cache_info() -> dict[str, dict[str, int]]:
    """Hit/miss/size counters for the reference-semantics caches."""
    return {
        "apply_T": {
            "hits": _T_CACHE.hits,
            "misses": _T_CACHE.misses,
            "size": len(_T_CACHE),
            "maxsize": _T_CACHE.maxsize,
        },
        "combine_received": {
            "hits": _COMBINE_CACHE.hits,
            "misses": _COMBINE_CACHE.misses,
            "size": len(_COMBINE_CACHE),
            "maxsize": _COMBINE_CACHE.maxsize,
        },
    }


def clear_reference_caches() -> None:
    """Drop all memoized ``T``/combine results (counters included)."""
    _T_CACHE.clear()
    _COMBINE_CACHE.clear()


def set_reference_cache_size(
    t_cache: int = DEFAULT_T_CACHE_SIZE,
    combine_cache: int = DEFAULT_COMBINE_CACHE_SIZE,
) -> None:
    """Resize the per-process caches (clears current contents)."""
    if t_cache < 1 or combine_cache < 1:
        raise ValueError("cache sizes must be >= 1")
    _T_CACHE.maxsize = t_cache
    _COMBINE_CACHE.maxsize = combine_cache
    clear_reference_caches()


@contextmanager
def reference_caches_disabled():
    """Temporarily bypass memoization (benchmark baselines, equivalence
    tests).  The caches themselves are left intact."""
    global _CACHES_ENABLED
    previous = _CACHES_ENABLED
    _CACHES_ENABLED = False
    try:
        yield
    finally:
        _CACHES_ENABLED = previous


def apply_T(condition: Condition, updates: Iterable[Update], source: str = "N") -> list[Alert]:
    """``T(U)``: run a fresh evaluator over ``updates`` and collect alerts.

    This is the behaviour of the corresponding non-replicated system N
    (Figure 2(b)): one CE, no filtering at the AD.

    Results are memoized per-process in a content-keyed LRU: thousands of
    randomized trials share scenario structure, and the property checkers
    re-derive ``T`` over identical (condition, trace) pairs.  Conditions
    without a :meth:`~repro.core.condition.Condition.cache_key` (opaque
    predicates) bypass the cache.
    """
    condition_key = condition.cache_key() if _CACHES_ENABLED else None
    if condition_key is None:
        evaluator = ConditionEvaluator(condition, source=source)
        return evaluator.ingest_all(updates)
    updates = list(updates)
    key = (condition_key, source, _fingerprint(updates))
    cached = _T_CACHE.get(key)
    if cached is not _MISS:
        return list(cached)
    evaluator = ConditionEvaluator(condition, source=source)
    alerts = evaluator.ingest_all(updates)
    _T_CACHE.put(key, tuple(alerts))
    return alerts


def ground_truth_alerts(
    condition: Condition, sent_log: Iterable[tuple[float, Update]]
) -> list[tuple[float, Alert]]:
    """What the ideal system raises, and when: ``(trigger_time, alert)``.

    The ideal system is one co-located CE — zero latency, no loss, no
    downtime — fed the DMs' merged broadcast log (a run's ``sent_log``),
    so an alert's trigger time is the broadcast time of the update that
    fired it.  For multi-variable conditions this fixes the interleaving
    to broadcast order, which is what such a CE would observe.  Delivery
    statistics, notification latencies and the quality metrics' event
    keys are all views of this one pass.
    """
    evaluator = ConditionEvaluator(condition, source="N")
    raised = []
    for time, update in sent_log:
        alert = evaluator.ingest(update)
        if alert is not None:
            raised.append((time, alert))
    return raised


def merge_single_variable(u1: Sequence[Update], u2: Sequence[Update]) -> list[Update]:
    """``U1 ⊔ U2`` for single-variable traces: ordered union by seqno.

    Inputs must each be ordered (they are subsequences of the DM's ordered
    output).  Where both traces carry the same seqno, the snapshot values
    must agree — the DM broadcast a single value for that seqno.
    """
    by_seqno: dict[int, Update] = {}
    for update in list(u1) + list(u2):
        existing = by_seqno.get(update.seqno)
        if existing is None:
            by_seqno[update.seqno] = update
        elif existing.varname != update.varname or existing.value != update.value:
            raise ValueError(
                f"conflicting updates for seqno {update.seqno}: "
                f"{existing} vs {update}"
            )
    seqnos1 = [u.seqno for u in u1]
    seqnos2 = [u.seqno for u in u2]
    merged_seqnos = ordered_union(seqnos1, seqnos2)
    return [by_seqno[s] for s in merged_seqnos]


def combine_received(traces: Sequence[Sequence[Update]], variables: Iterable[str]) -> dict[str, list[Update]]:
    """Per-variable ordered union of the updates received by all CEs.

    For each variable x this yields the ordered union of the x-updates in
    every trace — the per-variable component of ``UV`` in Appendix C (and
    ``U1 ⊔ U2`` itself in the single-variable case).

    The combined union is memoized on the content of the traces, so
    re-evaluating the properties of one run (tables, sweeps, witnesses)
    merges each trace set only once per process.
    """
    variables = tuple(variables)
    if _CACHES_ENABLED:
        key = (tuple(_fingerprint(trace) for trace in traces), variables)
        cached = _COMBINE_CACHE.get(key)
        if cached is not _MISS:
            return {var: list(merged) for var, merged in cached.items()}
        combined = _combine_received_uncached(traces, variables)
        _COMBINE_CACHE.put(
            key, {var: tuple(merged) for var, merged in combined.items()}
        )
        return combined
    return _combine_received_uncached(traces, variables)


def _combine_received_uncached(
    traces: Sequence[Sequence[Update]], variables: Iterable[str]
) -> dict[str, list[Update]]:
    combined: dict[str, list[Update]] = {}
    for var in variables:
        merged: list[Update] = []
        for trace in traces:
            var_updates = [u for u in trace if u.varname == var]
            if not is_ordered([u.seqno for u in var_updates]):
                raise ValueError(
                    f"trace not ordered with respect to {var!r}: "
                    f"{project_seqnos(trace, var)}"
                )
            merged = merge_single_variable(merged, var_updates)
        combined[var] = merged
    return combined


def interleavings(per_variable: dict[str, Sequence[Update]]) -> Iterator[list[Update]]:
    """Generate every interleaving ``UV`` of the per-variable sequences.

    Each variable's updates keep their relative order; variables are
    shuffled together in all possible ways.  The count is multinomial in
    the lengths, so callers must keep inputs small — use
    :func:`count_interleavings` to pre-check, and prefer the
    constraint-based checkers in :mod:`repro.props` for larger instances.
    """
    variables = [v for v, seq in per_variable.items() if len(seq) > 0]
    sequences = {v: list(per_variable[v]) for v in variables}
    positions = {v: 0 for v in variables}

    def generate(prefix: list[Update]) -> Iterator[list[Update]]:
        if all(positions[v] == len(sequences[v]) for v in variables):
            yield list(prefix)
            return
        for var in variables:
            if positions[var] < len(sequences[var]):
                update = sequences[var][positions[var]]
                positions[var] += 1
                prefix.append(update)
                yield from generate(prefix)
                prefix.pop()
                positions[var] -= 1

    return generate([])


def count_interleavings(per_variable: dict[str, Sequence[Update]]) -> int:
    """Number of distinct interleavings (multinomial coefficient)."""
    from math import comb

    total = 0
    count = 1
    for seq in per_variable.values():
        n = len(seq)
        total += n
        count *= comb(total, n)
    return count


def is_interleaving_of(candidate: Sequence[Update], per_variable: dict[str, Sequence[Update]]) -> bool:
    """True iff ``candidate`` interleaves exactly the given per-variable runs."""
    positions = {v: 0 for v in per_variable}
    for update in candidate:
        var = update.varname
        if var not in positions:
            return False
        expected = per_variable[var]
        if positions[var] >= len(expected) or expected[positions[var]] != update:
            return False
        positions[var] += 1
    return all(positions[v] == len(per_variable[v]) for v in per_variable)
