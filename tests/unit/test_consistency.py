"""Unit tests for the consistency checkers, including cross-validation of
the fast constraint checkers against the exhaustive oracle."""

import pytest

from repro.core.alert import make_alert
from repro.core.condition import c2, cm
from repro.core.update import Update, parse_trace
from repro.props import consistency
from repro.props.consistency import (
    check_consistency_multi,
    check_consistency_single,
)
from tests.conftest import (
    alert_deg1,
    alert_deg2,
    alert_xy,
    check_consistency_bruteforce,
    keys_of,
)


class TestSingleVariable:
    def test_empty_is_consistent(self):
        assert check_consistency_single([], "x")

    def test_non_historical_any_order_consistent(self):
        alerts = [alert_deg1(3), alert_deg1(1), alert_deg1(2)]
        assert check_consistency_single(keys_of(alerts), "x")

    def test_theorem_4_conflict(self):
        # alert(2x,1x) requires 2 received; alert(3x,1x) requires 2 missed.
        alerts = [alert_deg2(2, 1), alert_deg2(3, 1)]
        result = check_consistency_single(keys_of(alerts), "x")
        assert not result
        assert "2" in result.conflict

    def test_conflict_order_independent(self):
        alerts = [alert_deg2(3, 1), alert_deg2(2, 1)]
        assert not check_consistency_single(keys_of(alerts), "x")

    def test_compatible_gapped_alerts(self):
        # Both require 2 missed: no conflict.
        alerts = [alert_deg2(3, 1), alert_deg2(4, 3)]
        assert check_consistency_single(keys_of(alerts), "x")

    def test_witness_received_set(self):
        alerts = [alert_deg2(3, 1)]
        result = check_consistency_single(keys_of(alerts), "x")
        assert result.witness_received == frozenset({1, 3})

    def test_conservative_histories_never_conflict(self):
        # Consecutive histories have no gaps -> Missed stays empty.
        alerts = [alert_deg2(2, 1), alert_deg2(4, 3), alert_deg2(3, 2)]
        assert check_consistency_single(keys_of(alerts), "x")

    def test_variable_inferred_from_alert(self):
        assert check_consistency_single(keys_of([alert_deg1(1)]))

    def test_multi_variable_alert_needs_explicit_variable(self):
        with pytest.raises(ValueError):
            check_consistency_single(keys_of([alert_xy(1, 1)]))

    def test_duplicates_are_consistent(self):
        alerts = [alert_deg2(3, 1), alert_deg2(3, 1)]
        assert check_consistency_single(keys_of(alerts), "x")


class TestMultiVariable:
    def test_empty(self):
        assert check_consistency_multi([], ["x", "y"])

    def test_theorem_10_cycle(self):
        # a(2x,1y) and a(1x,2y) cannot coexist.
        alerts = [alert_xy(2, 1), alert_xy(1, 2)]
        result = check_consistency_multi(keys_of(alerts), ["x", "y"])
        assert not result
        assert "cycle" in result.conflict

    def test_single_alert_consistent(self):
        assert check_consistency_multi(keys_of([alert_xy(2, 1)]), ["x", "y"])

    def test_monotone_alerts_consistent(self):
        alerts = [alert_xy(1, 1), alert_xy(2, 1), alert_xy(2, 2)]
        assert check_consistency_multi(keys_of(alerts), ["x", "y"])

    def test_lemma6_pair_consistent_but_incomplete(self):
        # (8x,2y) and (8x,4y) ARE consistent (drop 3y's forced alert is a
        # completeness problem, not consistency).
        alerts = [alert_xy(8, 2), alert_xy(8, 4)]
        assert check_consistency_multi(keys_of(alerts), ["x", "y"])

    def test_membership_conflict_detected(self):
        from repro.core.alert import make_alert
        from repro.core.update import Update

        gap = make_alert(
            "c",
            {"x": [Update("x", 3), Update("x", 1)], "y": [Update("y", 1)]},
        )
        needs2 = make_alert(
            "c",
            {"x": [Update("x", 2), Update("x", 1)], "y": [Update("y", 1)]},
        )
        assert not check_consistency_multi(keys_of([gap, needs2]), ["x", "y"])

    def test_witness_on_success(self):
        result = check_consistency_multi(keys_of([alert_xy(1, 1)]), ["x", "y"])
        assert ("x", 1) in result.witness_received
        assert ("y", 1) in result.witness_received


def alert_x2y(x_head: int, x_prev: int, y_seqno: int):
    """a(ix,jx; ky): degree 2 in x, degree 1 in y."""
    return make_alert(
        "c",
        {
            "x": [Update("x", x_head), Update("x", x_prev)],
            "y": [Update("y", y_seqno)],
        },
    )


class TestTwoLayers:
    """An ordered A is settled by the pass that collects the membership
    sets; only an unordered A builds the precedence graph."""

    @pytest.fixture
    def graph_calls(self, monkeypatch):
        calls = []
        real = consistency._precedence_cycle

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(consistency, "_precedence_cycle", counted)
        return calls

    @pytest.fixture
    def no_graph(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("an ordered A must not reach the graph")

        monkeypatch.setattr(consistency, "_precedence_cycle", forbidden)

    def test_ordered_A_is_consistent_without_the_graph(self, no_graph):
        # Π_x A = ⟨1,2,2⟩ and Π_y A = ⟨1,1,2⟩ are both non-decreasing.
        alerts = [alert_xy(1, 1), alert_xy(2, 1), alert_xy(2, 2)]
        result = check_consistency_multi(keys_of(alerts), ["x", "y"])
        assert result
        assert result.witness_received == frozenset(
            {("x", 1), ("x", 2), ("y", 1), ("y", 2)}
        )

    def test_ordered_historical_A_without_the_graph(self, no_graph):
        # a(3x,1x; 1y), a(4x,3x; 2y): both want 2x missed — no conflict.
        alerts = [alert_x2y(3, 1, 1), alert_x2y(4, 3, 2)]
        result = check_consistency_multi(keys_of(alerts), ["x", "y"])
        assert result
        assert result.witness_received == frozenset(
            {("x", 1), ("x", 3), ("x", 4), ("y", 1), ("y", 2)}
        )

    def test_membership_is_checked_before_the_ordered_shortcut(self, no_graph):
        # Ordered (x-heads ⟨2,3⟩), but a(2x,1x) needs 2x received and
        # a(3x,1x) needs it missed: Theorem 7's conflict, per variable.
        alerts = [alert_x2y(2, 1, 1), alert_x2y(3, 1, 1)]
        result = check_consistency_multi(keys_of(alerts), ["x", "y"])
        assert not result
        assert result.conflict == (
            "update 2x is required received by one alert "
            "and required missed by another"
        )

    def test_unordered_acyclic_A_is_decided_by_the_graph(self, graph_calls):
        # Π_x A = ⟨2,1⟩ is not ordered, yet ⟨1x,1y,2x,2y⟩ explains both.
        alerts = [alert_xy(2, 2), alert_xy(1, 1)]
        assert check_consistency_multi(keys_of(alerts), ["x", "y"])
        assert len(graph_calls) == 1

    def test_unordered_cyclic_A_reports_the_cycle(self, graph_calls):
        # Theorem 10: a(2x,1y) and a(1x,2y) cannot coexist.
        result = check_consistency_multi(
            keys_of([alert_xy(2, 1), alert_xy(1, 2)]), ["x", "y"]
        )
        assert not result
        assert result.conflict == "precedence cycle over updates: 2y -> 2x -> 2y"
        longer = check_consistency_multi(
            keys_of([alert_xy(2, 3), alert_xy(3, 1), alert_xy(1, 2)]), ["x", "y"]
        )
        assert longer.conflict == (
            "precedence cycle over updates: 3x -> 2y -> 2x -> 3x"
        )
        assert len(graph_calls) == 2


class TestBruteForceOracle:
    def test_theorem_4_refuted_by_oracle(self):
        condition = c2()
        u1 = parse_trace("1x(400), 2x(700), 3x(720)")
        u2 = parse_trace("1x(400), 3x(720)")
        from repro.core.reference import combine_received

        per_var = combine_received([u1, u2], ["x"])
        from repro.core.evaluator import ConditionEvaluator

        a1 = ConditionEvaluator(condition).ingest_all(u1)
        a2 = ConditionEvaluator(condition).ingest_all(u2)
        alerts = a1 + a2
        assert not check_consistency_bruteforce(alerts, condition, per_var)

    def test_oracle_finds_witness(self):
        condition = c2()
        u1 = parse_trace("1x(400), 2x(700)")
        per_var = {"x": u1}
        from repro.core.evaluator import ConditionEvaluator

        alerts = ConditionEvaluator(condition).ingest_all(u1)
        result = check_consistency_bruteforce(alerts, condition, per_var)
        assert result
        assert result.witness_sequence is not None

    def test_oracle_limit_enforced(self):
        condition = cm()
        per_var = {
            "x": parse_trace("1x, 2x, 3x, 4x, 5x"),
            "y": parse_trace("1y, 2y, 3y, 4y, 5y"),
        }
        with pytest.raises(RuntimeError):
            check_consistency_bruteforce(
                [alert_xy(1, 1)], condition, per_var, limit=10
            )

    def test_empty_alerts_trivially_consistent(self):
        assert check_consistency_bruteforce([], cm(), {"x": [], "y": []})
