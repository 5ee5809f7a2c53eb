"""Unit coverage for the exhaustive-interleaving classifier internals."""

import pytest

from repro.core.condition import c1
from repro.core.update import parse_trace
from repro.displayers import AD1
from repro.props.exhaustive import (
    PropertyClassification,
    classify_trace_pair,
    count_merge_orders,
    iter_merge_orders,
)


class TestPropertyClassification:
    def test_always(self):
        c = PropertyClassification(holds_count=5, violated_count=0)
        assert c.verdict == "always"
        assert c.holds_count + c.violated_count == 5

    def test_never(self):
        assert PropertyClassification(0, 4).verdict == "never"

    def test_sometimes(self):
        assert PropertyClassification(3, 2).verdict == "sometimes"


class TestMergeOrderEdges:
    def test_all_empty(self):
        assert list(iter_merge_orders([0, 0])) == [()]
        assert count_merge_orders([0, 0]) == 1

    def test_single_stream(self):
        assert list(iter_merge_orders([3])) == [(0, 0, 0)]

    def test_count_three_streams(self):
        # multinomial(2,1,1) = 4!/2! = 12
        assert count_merge_orders([2, 1, 1]) == 12
        assert len(list(iter_merge_orders([2, 1, 1]))) == 12


class TestClassifierEdges:
    def test_no_alerts_all_trivially_hold(self):
        traces = (
            tuple(parse_trace("1x(100)")),  # never triggers c1
            tuple(parse_trace("1x(100)")),
        )
        report = classify_trace_pair(c1(), traces, AD1)
        assert report.interleavings == 1
        assert report.ordered.verdict == "always"
        assert report.complete.verdict == "always"
        assert report.consistent.verdict == "always"

    def test_witnesses_populated_both_ways(self):
        traces = (
            tuple(parse_trace("1x(3100), 2x(3200)")),
            tuple(parse_trace("2x(3200)")),
        )
        report = classify_trace_pair(c1(), traces, AD1)
        assert report.ordered.verdict == "sometimes"
        assert report.ordered.holding_witness is not None
        assert report.ordered.violating_witness is not None
        assert (
            report.ordered.holds_count + report.ordered.violated_count
            == report.interleavings
        )

    def test_three_ce_traces(self):
        traces = (
            tuple(parse_trace("1x(3100)")),
            tuple(parse_trace("1x(3100)")),
            tuple(parse_trace("1x(3100)")),
        )
        report = classify_trace_pair(c1(), traces, AD1)
        assert report.interleavings == 6
        assert report.complete.verdict == "always"
