"""Property-based tests: AD algorithm invariants over arbitrary arrival
streams.

The paper's guarantees are universally quantified over inputs; hypothesis
hunts for counterexamples in the space of arbitrary alert streams (not
just streams a real CE pair could emit — the algorithms' guarantees are
purely local to the AD, so they must hold regardless).
"""

from hypothesis import given, strategies as st

from repro.core.alert import Alert
from repro.core.sequences import is_subsequence
from repro.displayers import AD1, AD2, AD3, AD4, AD5, AD6
from repro.props.consistency import check_consistency_multi, check_consistency_single
from repro.props.orderedness import check_orderedness
from tests.conftest import alert_deg1, alert_deg2, alert_xy, keys_of


@st.composite
def deg1_streams(draw):
    seqnos = draw(st.lists(st.integers(1, 20), max_size=20))
    return [alert_deg1(s) for s in seqnos]


@st.composite
def deg2_streams(draw):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, 15), st.integers(1, 15)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=15,
        )
    )
    return [alert_deg2(max(a, b), min(a, b)) for a, b in pairs]


@st.composite
def xy_streams(draw):
    pairs = draw(
        st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)), max_size=15)
    )
    return [alert_xy(x, y) for x, y in pairs]


# -- output is always a subsequence of arrivals ------------------------------

@given(deg2_streams())
def test_every_algorithm_outputs_subsequence_of_arrivals(stream):
    for ad in (AD1(), AD2("x"), AD3("x"), AD4("x")):
        decisions = [ad.offer(a) for a in stream]
        assert is_subsequence(list(ad.output), stream)
        assert list(ad.output) == [a for a, shown in zip(stream, decisions) if shown]


# -- AD-2: orderedness --------------------------------------------------------

@given(deg1_streams())
def test_ad2_output_ordered_deg1(stream):
    ad = AD2("x")
    ad.offer_all(stream)
    assert check_orderedness(keys_of(ad.output), ["x"])


@given(deg2_streams())
def test_ad2_output_ordered_deg2(stream):
    ad = AD2("x")
    ad.offer_all(stream)
    seqnos = [a.seqno("x") for a in ad.output]
    assert seqnos == sorted(seqnos)
    assert len(seqnos) == len(set(seqnos))  # strictly increasing


# -- AD-3: consistency --------------------------------------------------------

@given(deg2_streams())
def test_ad3_output_consistent(stream):
    ad = AD3("x")
    ad.offer_all(stream)
    assert check_consistency_single(keys_of(ad.output), "x")


@given(deg2_streams())
def test_ad3_received_set_is_valid_witness(stream):
    ad = AD3("x")
    ad.offer_all(stream)
    # Every displayed alert's history lies inside Received, and its gaps
    # inside Missed — the invariant behind Theorem 7's proof.
    for alert in ad.output:
        history = set(alert.histories.seqnos("x"))
        assert history <= ad.received_set
    assert not (ad.received_set & ad.missed_set)


# -- AD-4: both ----------------------------------------------------------------

@given(deg2_streams())
def test_ad4_output_ordered_and_consistent(stream):
    ad = AD4("x")
    ad.offer_all(stream)
    output = list(ad.output)
    assert check_orderedness(keys_of(output), ["x"])
    assert check_consistency_single(keys_of(output), "x")


@given(deg2_streams())
def test_ad4_filters_superset_of_each_parent(stream):
    ad4 = AD4("x")
    ad4.offer_all(stream)
    ad2 = AD2("x")
    ad2.offer_all(stream)
    ad3 = AD3("x")
    ad3.offer_all(stream)
    # AD-4's output is a subsequence of each parent's output? NOT in
    # general (state evolves differently once outputs diverge).  What does
    # hold: AD-2 and AD-3 each dominate AD-4 (they filter less).
    assert is_subsequence(list(ad4.output), stream)


# -- AD-5 / AD-6: multi-variable ------------------------------------------------

@given(xy_streams())
def test_ad5_output_ordered_both_variables(stream):
    ad = AD5(("x", "y"))
    ad.offer_all(stream)
    assert check_orderedness(keys_of(ad.output), ["x", "y"])


@given(xy_streams())
def test_ad5_no_duplicate_consecutive(stream):
    ad = AD5(("x", "y"))
    ad.offer_all(stream)
    out = list(ad.output)
    for a, b in zip(out, out[1:]):
        assert (a.seqno("x"), a.seqno("y")) != (b.seqno("x"), b.seqno("y"))


@given(xy_streams())
def test_ad6_output_ordered_and_consistent(stream):
    ad = AD6(("x", "y"))
    ad.offer_all(stream)
    output = list(ad.output)
    assert check_orderedness(keys_of(output), ["x", "y"])
    assert check_consistency_multi(keys_of(output), ["x", "y"])


@given(xy_streams())
def test_ad5_output_consistent_for_degree1(stream):
    # Lemma 5 for the non-historical case: AD-5's output is consistent.
    ad = AD5(("x", "y"))
    ad.offer_all(stream)
    assert check_consistency_multi(keys_of(ad.output), ["x", "y"])


# -- Domination (Theorems 6 and 8) over arbitrary streams ----------------------

@given(deg2_streams())
def test_ad1_dominates_ad2(stream):
    ad1 = AD1()
    ad1.offer_all(stream)
    ad2 = AD2("x")
    ad2.offer_all(stream)
    assert is_subsequence(list(ad2.output), list(ad1.output))


@given(deg2_streams())
def test_ad1_dominates_ad3(stream):
    ad1 = AD1()
    ad1.offer_all(stream)
    ad3 = AD3("x")
    ad3.offer_all(stream)
    assert is_subsequence(list(ad3.output), list(ad1.output))


@given(deg2_streams())
def test_ad1_dominates_ad4(stream):
    ad1 = AD1()
    ad1.offer_all(stream)
    ad4 = AD4("x")
    ad4.offer_all(stream)
    assert is_subsequence(list(ad4.output), list(ad1.output))


@given(xy_streams())
def test_ad1_dominates_ad5_and_ad6(stream):
    ad1 = AD1()
    ad1.offer_all(stream)
    for algo in (AD5(("x", "y")), AD6(("x", "y"))):
        algo.offer_all(stream)
        assert is_subsequence(list(algo.output), list(ad1.output))


# -- Greedy maximality over arbitrary streams ----------------------------------

@given(deg2_streams())
def test_ad2_every_discard_justified(stream):
    from repro.analysis.experiments import strict_orderedness_property
    from repro.props.maximality import greedy_maximality_probe

    result = greedy_maximality_probe(AD2("x"), stream, strict_orderedness_property("x"))
    assert result.unjustified == 0


@given(deg2_streams())
def test_ad3_every_discard_justified(stream):
    from repro.analysis.experiments import consistency_property
    from repro.props.maximality import greedy_maximality_probe

    result = greedy_maximality_probe(AD3("x"), stream, consistency_property("x"))
    assert result.unjustified == 0
