"""Unit tests for the reference T mapping and trace combination."""

import pytest

from repro.core.condition import c1, c2
from repro.core.reference import (
    apply_T,
    clear_reference_caches,
    combine_received,
    count_interleavings,
    merge_single_variable,
    reference_cache_info,
)
from repro.core.update import Update, parse_trace
from tests.conftest import interleavings, is_interleaving_of


class TestApplyT:
    def test_example_1(self):
        alerts = apply_T(c1(), parse_trace("1x(2900), 2x(3100), 3x(3200)"))
        assert [a.seqno("x") for a in alerts] == [2, 3]

    def test_fresh_state_per_call(self):
        trace = parse_trace("1x(3100)")
        assert len(apply_T(c1(), trace)) == 1
        assert len(apply_T(c1(), trace)) == 1  # no leakage between calls

    def test_source_label(self):
        alerts = apply_T(c1(), parse_trace("1x(3100)"), source="N")
        assert alerts[0].source == "N"

    def test_empty_trace(self):
        assert apply_T(c1(), []) == []


class TestMergeSingleVariable:
    def test_merges_by_seqno(self):
        u1 = parse_trace("1x(10), 3x(30)")
        u2 = parse_trace("2x(20), 3x(30)")
        merged = merge_single_variable(u1, u2)
        assert [u.seqno for u in merged] == [1, 2, 3]
        assert [u.value for u in merged] == [10.0, 20.0, 30.0]

    def test_disjoint(self):
        merged = merge_single_variable(parse_trace("1x"), parse_trace("2x"))
        assert [u.seqno for u in merged] == [1, 2]

    def test_empty_sides(self):
        assert merge_single_variable([], []) == []
        assert [u.seqno for u in merge_single_variable(parse_trace("1x"), [])] == [1]

    def test_conflicting_values_rejected(self):
        with pytest.raises(ValueError):
            merge_single_variable(
                [Update("x", 1, 10.0)], [Update("x", 1, 20.0)]
            )


class TestCombineReceived:
    def test_per_variable_union(self):
        t1 = parse_trace("1x, 2y, 3x")
        t2 = parse_trace("2x, 2y")
        combined = combine_received([t1, t2], ["x", "y"])
        assert [u.seqno for u in combined["x"]] == [1, 2, 3]
        assert [u.seqno for u in combined["y"]] == [2]

    def test_unordered_trace_rejected(self):
        bad = [Update("x", 2), Update("x", 1)]
        with pytest.raises(ValueError):
            combine_received([bad], ["x"])

    def test_three_traces(self):
        traces = [parse_trace("1x"), parse_trace("2x"), parse_trace("3x")]
        combined = combine_received(traces, ["x"])
        assert [u.seqno for u in combined["x"]] == [1, 2, 3]

    def test_matches_the_pairwise_ordered_union(self):
        # U1 ⊔ U2 ⊔ U3 per variable, folded with merge_single_variable.
        traces = [
            parse_trace("1x(10), 1y(5), 4x(40)"),
            parse_trace("2y(6), 2x(20), 4x(40), 3y(7)"),
            parse_trace("1x(10), 3x(30), 1y(5), 1z(0)"),
        ]
        combined = combine_received(traces, ("y", "x"))
        assert list(combined) == ["y", "x"]
        for var in ("x", "y"):
            folded: list[Update] = []
            for trace in traces:
                folded = merge_single_variable(
                    folded, [u for u in trace if u.varname == var]
                )
            assert combined[var] == folded
            assert [u.value for u in combined[var]] == [u.value for u in folded]

    def test_conflicting_values_rejected(self):
        # The DM broadcast one value for 2x; two CEs cannot disagree on it.
        t1 = parse_trace("1x(10), 2x(20)")
        t2 = parse_trace("2x(21), 3x(30)")
        with pytest.raises(ValueError, match="conflicting updates for seqno 2"):
            combine_received([t1, t2], ["x"])

    def test_unordered_in_one_variable_only(self):
        bad = parse_trace("1x, 2y, 1y, 2x")
        with pytest.raises(ValueError, match="not ordered with respect to 'y'"):
            combine_received([bad], ["x", "y"])
        # ... and a variable nobody asked about is not inspected.
        assert [u.seqno for u in combine_received([bad], ["x"])["x"]] == [1, 2]

    def test_returns_fresh_lists(self):
        u1 = parse_trace("1x(2900)")
        combined = combine_received([u1], ("x",))
        combined["x"].append("sentinel")
        assert len(combine_received([u1], ("x",))["x"]) == 1


class TestInterleavings:
    def test_count_matches_enumeration(self):
        per_var = {
            "x": parse_trace("1x, 2x"),
            "y": parse_trace("1y"),
        }
        generated = list(interleavings(per_var))
        assert len(generated) == count_interleavings(per_var) == 3

    def test_all_distinct(self):
        per_var = {"x": parse_trace("1x, 2x"), "y": parse_trace("1y, 2y")}
        generated = [tuple(seq) for seq in interleavings(per_var)]
        assert len(generated) == len(set(generated)) == 6

    def test_preserves_per_variable_order(self):
        per_var = {"x": parse_trace("1x, 2x"), "y": parse_trace("1y")}
        for seq in interleavings(per_var):
            xs = [u.seqno for u in seq if u.varname == "x"]
            assert xs == [1, 2]

    def test_single_variable_single_interleaving(self):
        per_var = {"x": parse_trace("1x, 2x, 3x")}
        assert len(list(interleavings(per_var))) == 1

    def test_empty_variable_skipped(self):
        per_var = {"x": parse_trace("1x"), "y": []}
        assert len(list(interleavings(per_var))) == 1

    def test_is_interleaving_of(self):
        per_var = {"x": parse_trace("1x, 2x"), "y": parse_trace("1y")}
        good = parse_trace("1x, 1y, 2x")
        bad_order = parse_trace("2x, 1y, 1x")
        incomplete = parse_trace("1x, 1y")
        assert is_interleaving_of(good, per_var)
        assert not is_interleaving_of(bad_order, per_var)
        assert not is_interleaving_of(incomplete, per_var)

    def test_count_interleavings_multinomial(self):
        per_var = {"x": parse_trace("1x, 2x, 3x"), "y": parse_trace("1y, 2y")}
        assert count_interleavings(per_var) == 10


class TestTOnMergedInput:
    def test_completeness_reference(self):
        # T(U1 ⊔ U2) for Example 1: all three updates -> alerts at 2 and 3.
        u1 = parse_trace("1x(2900), 2x(3100), 3x(3200)")
        u2 = parse_trace("1x(2900), 3x(3200)")
        merged = merge_single_variable(u1, u2)
        alerts = apply_T(c1(), merged)
        assert [a.seqno("x") for a in alerts] == [2, 3]

    def test_historical_merge_creates_new_alert(self):
        # §3.2: update i only at CE1, i+1 only at CE2 -> N alerts on both.
        u1 = parse_trace("1x(1000)")
        u2 = parse_trace("2x(1500)")
        merged = merge_single_variable(u1, u2)
        alerts = apply_T(c2(), merged)
        assert [a.seqno("x") for a in alerts] == [2]


def test_cache_reporting_names_kept_for_the_perf_harness():
    """``benchmarks/perf/trials.py`` imports both; nothing is cached."""
    assert clear_reference_caches() is None
    assert reference_cache_info() == {}
