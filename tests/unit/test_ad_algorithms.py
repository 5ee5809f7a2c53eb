"""Unit tests for AD-1 … AD-6 and the algorithm registry."""

import pytest

from repro.core.condition import c1, c2, cm
from repro.core.update import Update
from repro.displayers import (
    AD1,
    AD2,
    AD3,
    AD4,
    AD5,
    AD6,
    PassThrough,
    algorithm_info,
    algorithm_names,
    make_ad,
    run_ad,
)
from tests.conftest import alert_deg1, alert_deg2, alert_xy


class TestBaseProtocol:
    def test_offer_returns_decision(self):
        ad = AD1()
        assert ad.offer(alert_deg1(1)) is True
        assert ad.offer(alert_deg1(1)) is False

    def test_output_and_discarded_partition_arrivals(self):
        ad = AD1()
        arrivals = [alert_deg1(1), alert_deg1(1), alert_deg1(2)]
        assert [ad.offer(a) for a in arrivals] == [True, False, True]
        assert ad.output == (arrivals[0], arrivals[2])

    def test_fresh_does_not_share_state(self):
        ad = AD2("x")
        ad.offer(alert_deg1(5))
        fresh = ad.fresh()
        assert fresh.offer(alert_deg1(1)) is True  # old `last` not inherited

    def test_run_ad_leaves_instance_untouched(self):
        ad = AD1()
        run_ad(ad, [alert_deg1(1)])
        assert ad.output == ()


class TestAD1:
    def test_removes_exact_duplicates(self):
        ad = AD1()
        displayed = ad.offer_all([alert_deg1(1), alert_deg1(1)])
        assert len(displayed) == 1

    def test_different_histories_not_duplicates(self):
        # §3: a1 on (2x,3x) and a2 on (1x,3x) both reported to the user.
        ad = AD1()
        displayed = ad.offer_all([alert_deg2(3, 2), alert_deg2(3, 1)])
        assert len(displayed) == 2

    def test_passes_out_of_order(self):
        ad = AD1()
        displayed = ad.offer_all([alert_deg1(2), alert_deg1(1)])
        assert len(displayed) == 2

    def test_duplicate_detection_across_gap(self):
        ad = AD1()
        displayed = ad.offer_all([alert_deg1(1), alert_deg1(2), alert_deg1(1)])
        assert [a.seqno("x") for a in displayed] == [1, 2]


class TestAD2:
    def test_discards_out_of_order(self):
        ad = AD2("x")
        displayed = ad.offer_all([alert_deg1(2), alert_deg1(1)])
        assert [a.seqno("x") for a in displayed] == [2]

    def test_discards_duplicates(self):
        # a.seqno.x <= last covers equality.
        ad = AD2("x")
        displayed = ad.offer_all([alert_deg1(1), alert_deg1(1)])
        assert len(displayed) == 1

    def test_passes_increasing(self):
        ad = AD2("x")
        displayed = ad.offer_all([alert_deg1(1), alert_deg1(3), alert_deg1(7)])
        assert [a.seqno("x") for a in displayed] == [1, 3, 7]

    def test_example_2(self):
        # a2 (seqno 2) arrives before a1 (seqno 1): a1 filtered, A = <a2>.
        ad = AD2("x")
        displayed = ad.offer_all([alert_deg1(2), alert_deg1(1)])
        assert [a.seqno("x") for a in displayed] == [2]

    def test_output_always_ordered(self):
        ad = AD2("x")
        ad.offer_all([alert_deg1(s) for s in (3, 1, 4, 2, 5, 5, 6)])
        seqnos = [a.seqno("x") for a in ad.output]
        assert seqnos == sorted(seqnos)


class TestAD3:
    def test_example_3(self):
        # a1 with H=(3x,1x) passes; a2 with H=(3x,2x) conflicts (2 in Missed).
        ad = AD3("x")
        assert ad.offer(alert_deg2(3, 1)) is True
        assert ad.offer(alert_deg2(3, 2)) is False
        assert ad.received_set == frozenset({1, 3})
        assert ad.missed_set == frozenset({2})

    def test_reverse_conflict(self):
        # First alert records 2 as Received; second requires 2 missed.
        ad = AD3("x")
        assert ad.offer(alert_deg2(2, 1)) is True
        assert ad.offer(alert_deg2(3, 1)) is False  # span {1,2,3}, gap 2 received

    def test_compatible_alerts_pass(self):
        ad = AD3("x")
        assert ad.offer(alert_deg2(2, 1)) is True
        assert ad.offer(alert_deg2(3, 2)) is True

    def test_duplicates_suppressed(self):
        # Deviation from the literal pseudo-code, required by Theorem 8.
        ad = AD3("x")
        assert ad.offer(alert_deg2(2, 1)) is True
        assert ad.offer(alert_deg2(2, 1)) is False

    def test_non_historical_never_conflicts(self):
        ad = AD3("x")
        assert ad.offer(alert_deg1(2)) is True
        assert ad.offer(alert_deg1(1)) is True  # out of order but consistent

    def test_wider_gap(self):
        ad = AD3("x")
        assert ad.offer(alert_deg2(5, 1)) is True  # missed: 2, 3, 4
        assert ad.offer(alert_deg2(3, 2)) is False
        assert ad.offer(alert_deg2(6, 5)) is True


class TestAD4:
    def test_discards_if_either_would(self):
        ad = AD4("x")
        assert ad.offer(alert_deg2(3, 1)) is True
        # Conflicts with Missed={2} (AD-3 reason):
        assert ad.offer(alert_deg2(4, 2)) is False
        # Out of order (AD-2 reason):
        assert ad.offer(alert_deg2(2, 1)) is False

    def test_passes_clean_sequences(self):
        ad = AD4("x")
        assert ad.offer(alert_deg2(2, 1)) is True
        assert ad.offer(alert_deg2(3, 2)) is True

    def test_state_only_advances_on_display(self):
        ad = AD4("x")
        ad.offer(alert_deg2(3, 1))
        ad.offer(alert_deg2(2, 1))  # discarded by AD-2 part
        # 2 must NOT have been recorded as received by the AD-3 part:
        assert 2 not in ad.received_set

    def test_exposes_witness_sets(self):
        ad = AD4("x")
        ad.offer(alert_deg2(3, 1))
        assert ad.received_set == frozenset({1, 3})
        assert ad.missed_set == frozenset({2})


class TestAD5:
    def test_discards_inversion_in_any_variable(self):
        ad = AD5(("x", "y"))
        assert ad.offer(alert_xy(2, 1)) is True
        assert ad.offer(alert_xy(1, 2)) is False  # x regresses

    def test_discards_duplicate_of_last(self):
        ad = AD5(("x", "y"))
        assert ad.offer(alert_xy(1, 1)) is True
        assert ad.offer(alert_xy(1, 1)) is False

    def test_passes_progress_in_one_variable(self):
        ad = AD5(("x", "y"))
        assert ad.offer(alert_xy(1, 1)) is True
        assert ad.offer(alert_xy(1, 2)) is True
        assert ad.offer(alert_xy(2, 2)) is True

    def test_theorem_10_inputs(self):
        # a(2x,1y) then a(1x,2y): second regresses in x and is dropped.
        ad = AD5(("x", "y"))
        assert ad.offer(alert_xy(2, 1)) is True
        assert ad.offer(alert_xy(1, 2)) is False

    def test_requires_variables(self):
        with pytest.raises(ValueError):
            AD5(())

    def test_three_variables(self):
        ad = AD5(("x", "y", "z"))
        from repro.core.alert import make_alert

        a1 = make_alert(
            "c",
            {
                "x": [Update("x", 1)],
                "y": [Update("y", 1)],
                "z": [Update("z", 1)],
            },
        )
        a2 = make_alert(
            "c",
            {
                "x": [Update("x", 2)],
                "y": [Update("y", 1)],
                "z": [Update("z", 1)],
            },
        )
        assert ad.offer(a1) is True
        assert ad.offer(a2) is True
        assert ad.offer(a1) is False  # regresses in x


class TestAD6:
    def test_combines_ad5_and_multivar_ad3(self):
        ad = AD6(("x", "y"))
        assert ad.offer(alert_xy(2, 1)) is True
        assert ad.offer(alert_xy(1, 2)) is False  # AD-5 reason

    def test_conflict_tracking_per_variable(self):
        from repro.core.alert import make_alert

        ad = AD6(("x", "y"))
        gap_alert = make_alert(
            "c",
            {
                "x": [Update("x", 3), Update("x", 1)],  # 2 missed
                "y": [Update("y", 1)],
            },
        )
        conflicting = make_alert(
            "c",
            {
                "x": [Update("x", 4), Update("x", 2)],  # needs 2 received
                "y": [Update("y", 2)],
            },
        )
        assert ad.offer(gap_alert) is True
        assert ad.offer(conflicting) is False
        assert ad.missed_set("x") == frozenset({2})
        assert ad.received_set("x") == frozenset({1, 3})

    def test_state_only_advances_on_display(self):
        ad = AD6(("x", "y"))
        ad.offer(alert_xy(2, 2))
        ad.offer(alert_xy(1, 3))  # dropped by AD-5 (x regresses)
        assert 1 not in ad.received_set("x")


class TestRegistry:
    def test_names(self):
        assert set(algorithm_names()) == {
            "pass",
            "AD-1",
            "AD-2",
            "AD-3",
            "AD-4",
            "AD-5",
            "AD-6",
            "adaptive",
        }

    def test_make_single_variable(self):
        cond = c2()
        assert isinstance(make_ad("AD-2", cond), AD2)
        assert make_ad("AD-2", cond).varname == "x"
        assert isinstance(make_ad("AD-3", cond), AD3)
        assert isinstance(make_ad("AD-4", cond), AD4)

    def test_make_multi_variable(self):
        cond = cm()
        ad5 = make_ad("AD-5", cond)
        assert isinstance(ad5, AD5)
        assert ad5.varnames == ("x", "y")
        assert isinstance(make_ad("AD-6", cond), AD6)

    def test_single_variable_algorithms_reject_multivar_condition(self):
        with pytest.raises(ValueError):
            make_ad("AD-2", cm())

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_ad("AD-9", c1())
        with pytest.raises(KeyError):
            algorithm_info("AD-9")

    def test_pass_through(self):
        ad = make_ad("pass", c1())
        assert isinstance(ad, PassThrough)
        assert ad.offer(alert_deg1(1)) is True
        assert ad.offer(alert_deg1(1)) is True  # even duplicates pass

    def test_info_guarantees(self):
        assert algorithm_info("AD-2").guarantees_ordered
        assert not algorithm_info("AD-2").guarantees_consistent
        assert algorithm_info("AD-4").guarantees_ordered
        assert algorithm_info("AD-4").guarantees_consistent
        assert algorithm_info("AD-6").multi_variable
