"""Sequence notation from Section 2.2 of the paper.

The paper's analysis is phrased in terms of sequences of natural numbers
(update or alert sequence numbers).  This module implements that notation:

* ``is_ordered(S)`` -- S's elements appear in non-decreasing order.
* ``phi(S)`` -- the unordered *set* of S's elements (written ``ΦS``).
* ``is_subsequence(S1, S2)`` -- ``S1 ⊑ S2``: S1 obtainable from S2 by
  deleting zero or more elements.
* ``ordered_union(S1, S2)`` -- ``S1 ⊔ S2``: the ordered, duplicate-free
  sequence whose element set is ``ΦS1 ∪ ΦS2``.
* ``project(U, var)`` -- ``Πx U``: the sequence of sequence numbers of
  x-updates (or x-alert-seqnos) in U.

These functions accept any iterable of comparable elements; the rest of the
library uses them both on raw integers and on :class:`~repro.core.update.Update`
objects (via the projection helpers).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TypeVar

T = TypeVar("T")

__all__ = [
    "is_ordered",
    "is_strictly_ordered",
    "phi",
    "is_subsequence",
    "is_supersequence",
    "is_strict_supersequence",
    "sequences_equal",
    "ordered_union",
    "merge_ordered",
    "project_seqnos",
    "spanning_set",
    "history_gaps",
    "first_inversion",
]


def is_ordered(seq: Iterable) -> bool:
    """Return True iff the elements of ``seq`` appear in non-decreasing order.

    Matches the paper's definition: ``⟨3, 8, 100⟩`` and ``⟨2, 2⟩`` are
    ordered, ``⟨2, 1, 6⟩`` is not.  The empty sequence is ordered.
    """
    iterator = iter(seq)
    try:
        previous = next(iterator)
    except StopIteration:
        return True
    for element in iterator:
        if element < previous:
            return False
        previous = element
    return True


def is_strictly_ordered(seq: Iterable) -> bool:
    """Return True iff elements appear in strictly increasing order."""
    iterator = iter(seq)
    try:
        previous = next(iterator)
    except StopIteration:
        return True
    for element in iterator:
        if element <= previous:
            return False
        previous = element
    return True


def first_inversion(seq: Sequence) -> int | None:
    """Return the index ``i`` of the first element with ``seq[i] < seq[i-1]``.

    Returns None when ``seq`` is ordered.  Useful for reporting *where* an
    orderedness violation occurred in an alert sequence.
    """
    for i in range(1, len(seq)):
        if seq[i] < seq[i - 1]:
            return i
    return None


def phi(seq: Iterable[T]) -> frozenset[T]:
    """``ΦS``: the (unordered) set whose elements are those of sequence S.

    ``phi([2, 1, 2, 6]) == frozenset({1, 2, 6})``.
    """
    return frozenset(seq)


def is_subsequence(s1: Sequence, s2: Sequence) -> bool:
    """``S1 ⊑ S2``: S1 can be obtained from S2 by removing zero or more
    of S2's elements (order preserved).
    """
    it = iter(s2)
    for wanted in s1:
        for candidate in it:
            if candidate == wanted:
                break
        else:
            return False
    return True


def is_supersequence(s1: Sequence, s2: Sequence) -> bool:
    """``S1 ⊒ S2``: S2 is a subsequence of S1."""
    return is_subsequence(s2, s1)


def sequences_equal(s1: Sequence, s2: Sequence) -> bool:
    """``S1 = S2`` in the paper's sense: ``S1 ⊑ S2`` and ``S2 ⊑ S1``.

    For finite sequences this coincides with element-wise equality, which is
    how we implement it.
    """
    return list(s1) == list(s2)


def is_strict_supersequence(s1: Sequence, s2: Sequence) -> bool:
    """True iff S2 ⊑ S1 and S1 has at least one element more than S2 keeps.

    This is the relation behind *strict domination* (Section 4.1): an
    algorithm strictly dominates another when, for some input, its output is
    a strict supersequence of the other's.
    """
    return is_subsequence(s2, s1) and not is_subsequence(s1, s2)


def ordered_union(s1: Iterable, s2: Iterable) -> list:
    """``S1 ⊔ S2``: the ordered union of two ordered sequences.

    The result is the ordered sequence satisfying
    ``Φ(S1 ⊔ S2) = ΦS1 ∪ ΦS2`` with duplicates removed, e.g.
    ``ordered_union([1, 4, 8], [2, 4, 5]) == [1, 2, 4, 5, 8]``.

    Raises ValueError if either input is not ordered, since the operation is
    only defined on ordered sequences in the paper.
    """
    list1, list2 = list(s1), list(s2)
    if not is_ordered(list1) or not is_ordered(list2):
        raise ValueError("ordered_union is only defined on ordered sequences")
    return merge_ordered(list1, list2)


def merge_ordered(list1: list, list2: list) -> list:
    """Merge two ordered lists into an ordered, duplicate-free list."""
    result: list = []
    i = j = 0
    while i < len(list1) or j < len(list2):
        if j >= len(list2) or (i < len(list1) and list1[i] <= list2[j]):
            candidate = list1[i]
            i += 1
        else:
            candidate = list2[j]
            j += 1
        if not result or result[-1] != candidate:
            result.append(candidate)
    return result


def project_seqnos(updates: Iterable, varname: str) -> list[int]:
    """``Πx U``: sequence numbers of x-updates in U, in U's order.

    Works on anything with ``.varname`` and ``.seqno`` attributes
    (updates), e.g. ``project_seqnos([2x, 6y, 1y, 3x], "x") == [2, 3]``.
    """
    return [u.seqno for u in updates if u.varname == varname]


def spanning_set(values: Iterable[int]) -> frozenset[int]:
    """The set of consecutive integers between min and max of ``values``.

    ``spanning_set({1, 2, 5}) == {1, 2, 3, 4, 5}`` (Figure A-3).  The
    spanning set of the empty collection is empty.
    """
    collected = list(values)
    if not collected:
        return frozenset()
    return frozenset(range(min(collected), max(collected) + 1))


_NO_GAPS: frozenset[int] = frozenset()


def history_gaps(seqnos: Sequence[int]) -> frozenset[int]:
    """``SpanningSet(Hx) ∖ Hx`` of one history (Figure A-3's *Missed*).

    ``seqnos`` is a non-empty most-recent-first history, so it strictly
    decreases from its head to its tail: it spans ``head − tail + 1``
    integers and has a gap exactly when it holds fewer.  A history
    without one — every degree-1 history, every window of a lossless
    link — gets the same empty set and builds nothing.
    ``history_gaps((5, 2, 1)) == {3, 4}``.
    """
    head, tail = seqnos[0], seqnos[-1]
    if len(seqnos) == head - tail + 1:
        return _NO_GAPS
    return frozenset(range(tail + 1, head)).difference(seqnos)
