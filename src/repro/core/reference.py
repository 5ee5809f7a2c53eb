"""The reference mapping ``T`` and the corresponding non-replicated system.

Section 3 models a CE as a function ``T`` mapping a sequence of updates to
a sequence of alerts.  The three system properties are all phrased against
``T`` applied to combined inputs:

* completeness compares ΦA against ``ΦT(U1 ⊔ U2)``;
* consistency asks for a ``U′ ⊑ U1 ⊔ U2`` with ``ΦA ⊆ ΦT(U′)``.

This module provides ``T`` as a pure function (:func:`apply_T`), the
per-variable ordered-union combinator for update traces
(:func:`combine_received`), and the interleaving count of the
multi-variable definitions of Appendix C.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.evaluator import ConditionEvaluator
from repro.core.sequences import ordered_union, project_seqnos
from repro.core.update import Update

__all__ = [
    "apply_T",
    "combine_received",
    "merge_single_variable",
    "count_interleavings",
    "reference_cache_info",
    "clear_reference_caches",
]


# The memo caches these two reported on are gone (0 hits in ≈7,400
# lookups per Table-3 block); the names stay — an empty mapping and a
# no-op — because benchmarks/perf/trials.py imports them and a change
# that claims a gain may not edit the benchmark.
def reference_cache_info() -> dict[str, dict[str, int]]:
    return {}


def clear_reference_caches() -> None:
    pass


def apply_T(condition: Condition, updates: Iterable[Update], source: str = "N") -> list[Alert]:
    """``T(U)``: run a fresh evaluator over ``updates`` and collect alerts.

    This is the behaviour of the corresponding non-replicated system N
    (Figure 2(b)): one CE, no filtering at the AD.
    """
    return ConditionEvaluator(condition, source=source).ingest_all(updates)


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
    ``U1 ⊔ U2`` itself in the single-variable case).  One pass over the
    traces: each must be ordered with respect to every variable (it is a
    subsequence of the DMs' ordered outputs), and where several carry the
    same seqno the snapshot values must agree — the DM broadcast a single
    value for it; the earliest trace's copy is kept.
    """
    by_seqno: dict[str, dict[int, Update]] = {var: {} for var in variables}
    for trace in traces:
        newest: dict[str, int] = {}
        for update in trace:
            var = update.varname
            seen = by_seqno.get(var)
            if seen is None:
                continue
            seqno = update.seqno
            if seqno < newest.get(var, seqno):
                raise ValueError(
                    f"trace not ordered with respect to {var!r}: "
                    f"{project_seqnos(trace, var)}"
                )
            newest[var] = seqno
            existing = seen.setdefault(seqno, update)
            if existing is not update and existing.value != update.value:
                raise ValueError(
                    f"conflicting updates for seqno {seqno}: "
                    f"{existing} vs {update}"
                )
    return {
        var: [seen[seqno] for seqno in sorted(seen)]
        for var, seen in by_seqno.items()
    }


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
