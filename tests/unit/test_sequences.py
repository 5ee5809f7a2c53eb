"""Unit tests for the §2.2 sequence notation."""

import pytest

from repro.core.sequences import (
    first_inversion,
    is_ordered,
    is_strict_supersequence,
    is_strictly_ordered,
    is_subsequence,
    is_supersequence,
    merge_ordered,
    ordered_union,
    phi,
    project_seqnos,
    sequences_equal,
    spanning_set,
)
from repro.core.update import Update


class TestIsOrdered:
    def test_paper_examples(self):
        assert is_ordered([3, 8, 100])
        assert is_ordered([2, 2])
        assert not is_ordered([2, 1, 6])

    def test_empty_is_ordered(self):
        assert is_ordered([])

    def test_singleton_is_ordered(self):
        assert is_ordered([5])

    def test_descending(self):
        assert not is_ordered([3, 2, 1])

    def test_accepts_generators(self):
        assert is_ordered(iter([1, 2, 3]))
        assert not is_ordered(iter([2, 1]))

    def test_plateau_then_drop(self):
        assert not is_ordered([1, 5, 5, 4])


class TestIsStrictlyOrdered:
    def test_strict(self):
        assert is_strictly_ordered([1, 2, 3])

    def test_equal_elements_rejected(self):
        assert not is_strictly_ordered([2, 2])

    def test_empty_and_singleton(self):
        assert is_strictly_ordered([])
        assert is_strictly_ordered([7])


class TestFirstInversion:
    def test_none_when_ordered(self):
        assert first_inversion([1, 2, 3]) is None

    def test_index_of_first_violation(self):
        assert first_inversion([1, 3, 2, 5]) == 2

    def test_equal_is_not_inversion(self):
        assert first_inversion([1, 1]) is None

    def test_empty(self):
        assert first_inversion([]) is None

    def test_any_comparable_elements(self):
        assert first_inversion([5]) is None
        assert first_inversion([2, 1]) == 1
        assert first_inversion([1.5, 1.25, 9.0]) == 1
        assert first_inversion(["a", "c", "b"]) == 2


class TestPhi:
    def test_paper_example(self):
        assert phi([2, 1, 2, 6]) == frozenset({1, 2, 6})

    def test_empty(self):
        assert phi([]) == frozenset()

    def test_returns_frozenset(self):
        assert isinstance(phi([1]), frozenset)


class TestSubsequence:
    def test_empty_is_subsequence_of_anything(self):
        assert is_subsequence([], [1, 2, 3])
        assert is_subsequence([], [])

    def test_identity(self):
        assert is_subsequence([1, 2], [1, 2])

    def test_skipping_elements(self):
        assert is_subsequence([1, 3], [1, 2, 3])
        assert is_subsequence([2], [1, 2, 3])

    def test_order_matters(self):
        assert not is_subsequence([3, 1], [1, 2, 3])

    def test_multiplicity_matters(self):
        assert not is_subsequence([2, 2], [1, 2, 3])
        assert is_subsequence([2, 2], [2, 1, 2])

    def test_longer_than_super(self):
        assert not is_subsequence([1, 2, 3], [1, 2])

    def test_supersequence_flips_arguments(self):
        assert is_supersequence([1, 2, 3], [1, 3])
        assert not is_supersequence([1, 3], [1, 2, 3])


class TestSequencesEqual:
    def test_equal(self):
        assert sequences_equal([1, 2], [1, 2])

    def test_unequal_order(self):
        assert not sequences_equal([1, 2], [2, 1])

    def test_tuple_vs_list(self):
        assert sequences_equal((1, 2), [1, 2])


class TestStrictSupersequence:
    def test_strict(self):
        assert is_strict_supersequence([1, 2, 3], [1, 3])

    def test_equal_is_not_strict(self):
        assert not is_strict_supersequence([1, 2], [1, 2])

    def test_unrelated(self):
        assert not is_strict_supersequence([1, 2], [3])


class TestOrderedUnion:
    def test_paper_example(self):
        assert ordered_union([1, 4, 8], [2, 4, 5]) == [1, 2, 4, 5, 8]

    def test_duplicates_removed(self):
        assert ordered_union([1, 2], [1, 2]) == [1, 2]

    def test_empty_inputs(self):
        assert ordered_union([], []) == []
        assert ordered_union([1], []) == [1]

    def test_self_union_is_identity(self):
        # Lemma 2: U ⊔ U = U.
        seq = [1, 3, 7]
        assert ordered_union(seq, seq) == seq

    def test_rejects_unordered_input(self):
        with pytest.raises(ValueError):
            ordered_union([2, 1], [1])
        with pytest.raises(ValueError):
            ordered_union([1], [3, 2])

    def test_internal_duplicates_collapsed(self):
        assert ordered_union([1, 1, 2], [2, 2]) == [1, 2]

    def test_merge_ordered_interleaving(self):
        assert merge_ordered([1, 5, 9], [2, 5, 8]) == [1, 2, 5, 8, 9]


class TestProjections:
    def test_paper_example(self):
        updates = [
            Update("x", 2),
            Update("y", 6),
            Update("y", 1),
            Update("x", 3),
        ]
        assert project_seqnos(updates, "x") == [2, 3]
        assert project_seqnos(updates, "y") == [6, 1]

    def test_missing_variable(self):
        assert project_seqnos([Update("x", 1)], "z") == []

    def test_empty(self):
        assert project_seqnos([], "x") == []


class TestSpanningSet:
    def test_paper_example(self):
        assert spanning_set({1, 2, 5}) == frozenset({1, 2, 3, 4, 5})

    def test_single_element(self):
        assert spanning_set({4}) == frozenset({4})

    def test_empty(self):
        assert spanning_set([]) == frozenset()

    def test_contiguous(self):
        assert spanning_set([2, 3, 4]) == frozenset({2, 3, 4})
