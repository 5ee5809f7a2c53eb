"""Differential tests: production AD classes vs the paper's pseudo-code.

Every decision the production classes make is compared against literal
transcriptions of Figures A-1, A-2, A-3 and A-5 on hypothesis-generated
alert streams.  The single documented divergence (AD-3 duplicate
suppression, required by Theorem 8) is asserted explicitly.
"""

from hypothesis import given, strategies as st

from repro.core.sequences import is_subsequence
from repro.displayers import AD1, AD2, AD3, AD5
from tests.pseudocode import (
    AD1State,
    AD2State,
    AD3State,
    AD5State,
    ad1_step,
    ad2_step,
    ad3_step,
    ad5_step,
    spanning_set,
)
from tests.conftest import alert_deg1, alert_deg2, alert_xy


@st.composite
def deg2_streams(draw):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(2, 14), st.integers(1, 13)).filter(
                lambda p: p[0] > p[1]
            ),
            max_size=18,
        )
    )
    return [alert_deg2(a, b) for a, b in pairs]


@st.composite
def unique_deg2_streams(draw):
    stream = draw(deg2_streams())
    seen, unique = set(), []
    for alert in stream:
        if alert.identity() not in seen:
            seen.add(alert.identity())
            unique.append(alert)
    return unique


@st.composite
def xy_streams(draw):
    pairs = draw(
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=18)
    )
    return [alert_xy(x, y) for x, y in pairs]


class TestSpanningSet:
    def test_paper_example(self):
        assert spanning_set({1, 2, 5}) == {1, 2, 3, 4, 5}

    def test_empty(self):
        assert spanning_set(set()) == set()


class TestAD1Conformance:
    @given(deg2_streams())
    def test_identical_decisions(self, stream):
        production = AD1()
        state = AD1State()
        for alert in stream:
            assert production.offer(alert) == ad1_step(state, alert)

    def test_membership_is_history_equality(self):
        # "a is in P" uses alert identity = equal history sets.
        state = AD1State()
        assert ad1_step(state, alert_deg2(3, 1)) is True
        assert ad1_step(state, alert_deg2(3, 1)) is False
        assert ad1_step(state, alert_deg2(3, 2)) is True


class TestAD2Conformance:
    @given(deg2_streams())
    def test_identical_decisions(self, stream):
        production = AD2("x")
        state = AD2State()
        for alert in stream:
            assert production.offer(alert) == ad2_step(state, alert)

    @given(st.lists(st.integers(1, 30), max_size=25))
    def test_identical_decisions_deg1(self, seqnos):
        production = AD2("x")
        state = AD2State()
        for seqno in seqnos:
            alert = alert_deg1(seqno)
            assert production.offer(alert) == ad2_step(state, alert)


class TestAD3Conformance:
    @given(unique_deg2_streams())
    def test_identical_on_duplicate_free_streams(self, stream):
        production = AD3("x")
        state = AD3State()
        for alert in stream:
            assert production.offer(alert) == ad3_step(state, alert)

    def test_divergence_on_duplicates(self):
        # The literal Figure A-3 passes an exact duplicate; the production
        # class suppresses it (Theorem 8 requires AD-1 >= AD-3).
        duplicate = alert_deg2(3, 1)
        state = AD3State()
        assert ad3_step(state, duplicate) is True
        assert ad3_step(state, duplicate) is True  # pseudo-code: passes!
        production = AD3("x")
        assert production.offer(duplicate) is True
        assert production.offer(duplicate) is False  # production: filtered

    @given(deg2_streams())
    def test_literal_pseudocode_breaks_theorem8_only_via_duplicates(self, stream):
        # On any stream, the literal AD-3's extra output relative to AD-1
        # consists exclusively of exact duplicates.
        ad1 = AD1()
        ad1_out = [a for a in stream if ad1.offer(a)]
        state = AD3State()
        literal_out = [a for a in stream if ad3_step(state, a)]
        extras = []
        remaining = list(ad1_out)
        for alert in literal_out:
            if remaining and remaining[0] is alert:
                remaining.pop(0)
            elif alert in ad1_out:
                extras.append(alert)  # a duplicate AD-1 removed
            else:
                # Not a duplicate: would be a real Theorem 8 violation.
                raise AssertionError(f"non-duplicate extra alert {alert}")
        # And the production AD-3 never has extras at all:
        production = AD3("x")
        production_out = [a for a in stream if production.offer(a)]
        fresh_ad1 = AD1()
        fresh_out = [a for a in stream if fresh_ad1.offer(a)]
        assert is_subsequence(production_out, fresh_out)

    @given(unique_deg2_streams())
    def test_state_sets_match(self, stream):
        production = AD3("x")
        state = AD3State()
        for alert in stream:
            production.offer(alert)
            ad3_step(state, alert)
        assert production.received_set == frozenset(state.Received)
        assert production.missed_set == frozenset(state.Missed)


class TestAD5Conformance:
    @given(xy_streams())
    def test_identical_decisions(self, stream):
        production = AD5(("x", "y"))
        state = AD5State()
        for alert in stream:
            assert production.offer(alert) == ad5_step(state, alert)
