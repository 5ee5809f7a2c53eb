"""Property-based tests (hypothesis) for the §2.2 sequence algebra."""

from hypothesis import given, strategies as st

from repro.core.sequences import (
    history_gaps,
    is_ordered,
    is_subsequence,
    merge_ordered,
    ordered_union,
    phi,
    spanning_set,
)

seqnos = st.integers(min_value=0, max_value=60)
ordered_lists = st.lists(seqnos, max_size=25).map(sorted)
dedup_ordered_lists = st.lists(seqnos, max_size=25, unique=True).map(sorted)


@st.composite
def histories(draw):
    """A history's seqnos as a snapshot holds them — non-empty, most
    recent first — with steps of 1 (consecutive) and more (a gap) mixed."""
    seqno = draw(seqnos)
    history = [seqno]
    for step in draw(st.lists(st.integers(1, 3), max_size=5)):
        seqno += step
        history.append(seqno)
    return tuple(reversed(history))


@given(ordered_lists, ordered_lists)
def test_ordered_union_is_ordered(s1, s2):
    assert is_ordered(ordered_union(s1, s2))


@given(ordered_lists, ordered_lists)
def test_ordered_union_phi_is_set_union(s1, s2):
    assert phi(ordered_union(s1, s2)) == phi(s1) | phi(s2)


@given(ordered_lists, ordered_lists)
def test_ordered_union_commutative(s1, s2):
    assert ordered_union(s1, s2) == ordered_union(s2, s1)


@given(ordered_lists, ordered_lists, ordered_lists)
def test_ordered_union_associative(s1, s2, s3):
    left = ordered_union(ordered_union(s1, s2), s3)
    right = ordered_union(s1, ordered_union(s2, s3))
    assert left == right


@given(dedup_ordered_lists)
def test_ordered_union_idempotent(s):
    # Lemma 2: U ⊔ U = U.
    assert ordered_union(s, s) == list(s)


@given(ordered_lists, ordered_lists)
def test_ordered_union_has_no_duplicates(s1, s2):
    union = ordered_union(s1, s2)
    assert len(union) == len(set(union))


@given(dedup_ordered_lists, dedup_ordered_lists)
def test_inputs_are_subsequences_of_union(s1, s2):
    union = ordered_union(s1, s2)
    assert is_subsequence(s1, union)
    assert is_subsequence(s2, union)


@given(st.lists(seqnos, max_size=20))
def test_subsequence_reflexive(s):
    assert is_subsequence(s, s)


@given(st.lists(seqnos, max_size=15), st.data())
def test_random_deletion_gives_subsequence(s, data):
    keep = data.draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
    sub = [x for x, k in zip(s, keep) if k]
    assert is_subsequence(sub, s)


@given(st.lists(seqnos, max_size=15), st.lists(seqnos, max_size=15),
       st.lists(seqnos, max_size=15))
def test_subsequence_transitive(s1, s2, s3):
    if is_subsequence(s1, s2) and is_subsequence(s2, s3):
        assert is_subsequence(s1, s3)


@given(st.sets(seqnos, max_size=15))
def test_spanning_set_contains_input(values):
    assert set(values) <= spanning_set(values)


@given(st.sets(seqnos, min_size=1, max_size=15))
def test_spanning_set_is_contiguous(values):
    span = sorted(spanning_set(values))
    assert span == list(range(min(values), max(values) + 1))


@given(dedup_ordered_lists, dedup_ordered_lists)
def test_merge_ordered_equals_sorted_set_union(s1, s2):
    assert merge_ordered(list(s1), list(s2)) == sorted(set(s1) | set(s2))


@given(histories())
def test_history_gaps_is_the_spanning_set_minus_the_history(history):
    # The expression check_consistency_single and AD-3's ConflictTracker
    # each computed inline before history_gaps existed.
    assert history_gaps(history) == spanning_set(history) - frozenset(history)
