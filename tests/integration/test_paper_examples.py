"""Integration tests: every worked example in the paper, asserted exactly.

Each test transcribes the paper's stated inputs and checks the stated
outcome — these are the ground-truth anchors of the reproduction.
"""

from repro.core.reference import apply_T, combine_received, merge_single_variable
from repro.displayers import AD1, AD2, AD3, AD5
from repro.props.completeness import (
    check_completeness_multi,
    check_completeness_single,
)
from repro.props.consistency import (
    check_consistency_multi,
    check_consistency_single,
)
from repro.props.orderedness import check_orderedness
from repro.workloads.traces import (
    example_1,
    example_2,
    example_3_alerts,
    lemma_6_example,
    theorem_10_example,
    theorem_3_example,
    theorem_4_example,
)
from tests.conftest import keys_of


class TestExample1:
    """§3 Example 1: c1 with 2x lost at CE2, Algorithm AD-1."""

    def test_ce_outputs(self):
        ex = example_1()
        assert [a.shorthand() for a in ex.alert_streams[0]] == ["a(2x)", "a(3x)"]
        assert [a.shorthand() for a in ex.alert_streams[1]] == ["a(3x)"]

    def test_arrival_order_a1_a3_a2(self):
        # "if the order of arrival is a1, a3, and then a2, we will get
        #  A = <a1, a3>" — two alerts delivered to the user.
        ex = example_1()
        displayed = ex.display(AD1(), [0, 1, 0])
        assert [a.shorthand() for a in displayed] == ["a(2x)", "a(3x)"]

    def test_duplicate_is_the_filtered_one(self):
        ex = example_1()
        ad = AD1()
        arrivals = ex.arrivals([0, 1, 0])
        filtered = [a for a in arrivals if not ad.offer(a)]
        assert len(filtered) == 1
        assert filtered[0].seqno("x") == 3


class TestExample2:
    """§4.2 Example 2: AD-2 sacrifices completeness."""

    def test_ad2_filters_late_alert(self):
        ex = example_2()
        displayed = ex.display(AD2("x"), [1, 0])  # a2 arrives first
        assert [a.seqno("x") for a in displayed] == [2]

    def test_resulting_system_incomplete(self):
        ex = example_2()
        displayed = ex.display(AD2("x"), [1, 0])
        merged = merge_single_variable(ex.traces[0], ex.traces[1])
        result = check_completeness_single(keys_of(displayed), ex.condition, merged)
        assert not result
        assert len(result.missing) == 1  # T(U1 ⊔ U2) has two alerts

    def test_ad1_would_have_been_complete(self):
        ex = example_2()
        displayed = ex.display(AD1(), [1, 0])
        merged = merge_single_variable(ex.traces[0], ex.traces[1])
        assert check_completeness_single(keys_of(displayed), ex.condition, merged)


class TestExample3:
    """§4.3 Example 3: AD-3's Received/Missed conflict filtering."""

    def test_walkthrough(self):
        _, a1, a2 = example_3_alerts()
        ad = AD3("x")
        assert ad.offer(a1) is True
        assert ad.received_set == frozenset({1, 3})
        assert ad.missed_set == frozenset({2})
        assert ad.offer(a2) is False

    def test_output_consistent(self):
        _, a1, a2 = example_3_alerts()
        ad = AD3("x")
        ad.offer_all([a1, a2])
        assert check_consistency_single(keys_of(ad.output), "x")

    def test_both_alerts_would_be_inconsistent(self):
        _, a1, a2 = example_3_alerts()
        assert not check_consistency_single(keys_of([a1, a2]), "x")


class TestTheorem3Example:
    """Appendix B, proof of Theorem 3: conservative = consistent but
    neither complete nor ordered."""

    def test_ce_outputs(self):
        ex = theorem_3_example()
        assert [a.seqno("x") for a in ex.alert_streams[0]] == [2]
        assert [a.seqno("x") for a in ex.alert_streams[1]] == [4]

    def test_reference_produces_three_alerts(self):
        ex = theorem_3_example()
        merged = merge_single_variable(ex.traces[0], ex.traces[1])
        alerts = apply_T(ex.condition, merged)
        assert [a.seqno("x") for a in alerts] == [2, 3, 4]

    def test_incomplete_under_ad1(self):
        ex = theorem_3_example()
        displayed = ex.display(AD1(), [0, 1])
        merged = merge_single_variable(ex.traces[0], ex.traces[1])
        assert not check_completeness_single(keys_of(displayed), ex.condition, merged)

    def test_unordered_interleaving_exists(self):
        ex = theorem_3_example()
        displayed = ex.display(AD1(), [1, 0])  # a(4) before a(2)
        assert not check_orderedness(keys_of(displayed), ["x"])

    def test_consistent_regardless_of_interleaving(self):
        ex = theorem_3_example()
        for order in ([0, 1], [1, 0]):
            displayed = ex.display(AD1(), order)
            assert check_consistency_single(keys_of(displayed), "x")


class TestTheorem4Example:
    """Appendix B, proof of Theorem 4: aggressive = inconsistent."""

    def test_ce_outputs(self):
        ex = theorem_4_example()
        assert [a.shorthand() for a in ex.alert_streams[0]] == ["a(2x,1x)"]
        assert [a.shorthand() for a in ex.alert_streams[1]] == ["a(3x,1x)"]

    def test_inconsistent_in_both_orders(self):
        ex = theorem_4_example()
        for order in ([0, 1], [1, 0]):
            displayed = ex.display(AD1(), order)
            assert not check_consistency_single(keys_of(displayed), "x")

    def test_ad3_restores_consistency(self):
        ex = theorem_4_example()
        for order in ([0, 1], [1, 0]):
            displayed = ex.display(AD3("x"), order)
            assert check_consistency_single(keys_of(displayed), "x")
            assert len(displayed) == 1  # one of the two is filtered


class TestTheorem10Example:
    """§5 / Appendix B: multi-variable AD-1 is neither ordered nor
    consistent, even with lossless links."""

    def test_ce_outputs(self):
        ex = theorem_10_example()
        assert [a.shorthand() for a in ex.alert_streams[0]] == ["a(2x; 1y)"]
        assert [a.shorthand() for a in ex.alert_streams[1]] == ["a(1x; 2y)"]

    def test_unordered(self):
        ex = theorem_10_example()
        displayed = ex.display(AD1(), [0, 1])
        assert not check_orderedness(keys_of(displayed), ["x", "y"])

    def test_inconsistent(self):
        ex = theorem_10_example()
        for order in ([0, 1], [1, 0]):
            displayed = ex.display(AD1(), order)
            assert not check_consistency_multi(keys_of(displayed), ["x", "y"])

    def test_ad5_restores_order_and_consistency(self):
        ex = theorem_10_example()
        for order in ([0, 1], [1, 0]):
            displayed = ex.display(AD5(("x", "y")), order)
            assert check_orderedness(keys_of(displayed), ["x", "y"])
            assert check_consistency_multi(keys_of(displayed), ["x", "y"])
            assert len(displayed) == 1


class TestLemma6Example:
    """Appendix B, Lemma 6: AD-5 is incomplete."""

    def test_ce_outputs(self):
        ex = lemma_6_example()
        assert [a.shorthand() for a in ex.alert_streams[0]] == ["a(8x; 2y)"]
        assert [a.shorthand() for a in ex.alert_streams[1]] == ["a(8x; 4y)"]

    def test_ad5_passes_both(self):
        ex = lemma_6_example()
        displayed = ex.display(AD5(("x", "y")), [0, 1])
        assert len(displayed) == 2

    def test_no_interleaving_realises_the_pair(self):
        ex = lemma_6_example()
        displayed = ex.display(AD5(("x", "y")), [0, 1])
        per_var = combine_received(ex.traces, ("x", "y"))
        result = check_completeness_multi(keys_of(displayed), ex.condition, per_var)
        assert not result
        # Every interleaving disagrees with the displayed pair somewhere.
        assert result.missing or result.extraneous
        # And specifically, any interleaving producing BOTH displayed
        # alerts also produces the forced intermediate (8x, 3y):
        from repro.core.reference import apply_T
        from tests.conftest import interleavings

        displayed_ids = frozenset(a.identity() for a in displayed)
        for candidate in interleavings(per_var):
            produced = frozenset(
                a.identity() for a in apply_T(ex.condition, candidate)
            )
            if displayed_ids <= produced:
                seqno_pairs = {
                    tuple(s for _, s in identity[1]) for identity in produced
                }
                assert ((8,), (3,)) in seqno_pairs

    def test_pair_is_consistent_though(self):
        # Incompleteness here is NOT a consistency violation.
        ex = lemma_6_example()
        displayed = ex.display(AD5(("x", "y")), [0, 1])
        assert check_consistency_multi(keys_of(displayed), ["x", "y"])
