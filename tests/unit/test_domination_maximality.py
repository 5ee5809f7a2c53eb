"""Unit tests for the domination and maximality analyses."""

from repro.displayers import AD1, AD2, AD3, PassThrough
from repro.props.domination import dominates_on
from repro.props.domination import test_domination as run_domination
from repro.props.maximality import greedy_maximality_probe, probe_streams
from repro.analysis.experiments import (
    consistency_property,
    strict_orderedness_property,
)
from tests.conftest import alert_deg1, alert_deg2


class TestDominatesOn:
    def test_ad1_dominates_ad2_on_reordered_stream(self):
        stream = [alert_deg1(2), alert_deg1(1)]
        holds, strict = dominates_on(AD1(), AD2("x"), stream)
        assert holds
        assert strict  # AD-2 drops the late alert, AD-1 keeps it

    def test_equal_outputs_not_strict(self):
        stream = [alert_deg1(1), alert_deg1(2)]
        holds, strict = dominates_on(AD1(), AD2("x"), stream)
        assert holds
        assert not strict

    def test_ad2_does_not_dominate_ad1(self):
        stream = [alert_deg1(2), alert_deg1(1)]
        holds, _ = dominates_on(AD2("x"), AD1(), stream)
        assert not holds

    def test_passthrough_dominates_ad1(self):
        stream = [alert_deg1(1), alert_deg1(1)]
        holds, strict = dominates_on(PassThrough(), AD1(), stream)
        assert holds
        assert strict

    def test_instances_not_mutated(self):
        g1, g2 = AD1(), AD2("x")
        dominates_on(g1, g2, [alert_deg1(1)])
        assert g1.output == ()
        assert g2.output == ()


class TestTestDomination:
    def test_tallies(self):
        streams = [
            [alert_deg1(1), alert_deg1(2)],          # equal outputs
            [alert_deg1(2), alert_deg1(1)],          # strict witness
        ]
        result = run_domination(AD1(), AD2("x"), streams)
        assert result.streams == 2
        assert result.violations == 0
        assert result.strict_witnesses == 1
        assert result.dominates
        assert result.strictly_dominates
        assert result.first_strict_witness is not None

    def test_violation_recorded(self):
        streams = [[alert_deg1(2), alert_deg1(1)]]
        result = run_domination(AD2("x"), AD1(), streams)
        assert result.violations == 1
        assert not result.dominates
        assert result.first_violation == tuple(streams[0])


class TestMaximalityProbe:
    def test_ad2_discards_all_justified(self):
        ordered = strict_orderedness_property("x")
        stream = [alert_deg1(3), alert_deg1(1), alert_deg1(3), alert_deg1(4)]
        result = greedy_maximality_probe(AD2("x"), stream, ordered)
        assert result.discards == 2
        assert result.unjustified == 0
        assert result.maximal

    def test_ad3_discards_all_justified(self):
        consistent = consistency_property("x")
        stream = [alert_deg2(3, 1), alert_deg2(3, 2), alert_deg2(3, 1)]
        result = greedy_maximality_probe(AD3("x"), stream, consistent)
        assert result.discards == 2  # conflict + duplicate
        assert result.unjustified == 0

    def test_overly_eager_filter_flagged(self):
        # A filter that drops everything is NOT maximal: its discards are
        # unjustified whenever the property would have held.
        class DropAll(AD2):
            name = "drop-all"

            def _accept(self, key):
                return False

        ordered = strict_orderedness_property("x")
        stream = [alert_deg1(1), alert_deg1(2)]
        result = greedy_maximality_probe(DropAll("x"), stream, ordered)
        assert result.unjustified == 2
        assert not result.maximal
        assert result.first_counterexample is not None

    def test_probe_streams_accumulates(self):
        ordered = strict_orderedness_property("x")
        streams = [
            [alert_deg1(2), alert_deg1(1)],
            [alert_deg1(3), alert_deg1(2)],
        ]
        result = probe_streams(AD2("x"), streams, ordered)
        assert result.streams == 2
        assert result.discards == 2
        assert result.maximal
