"""Unit tests for Appendix D: multiple conditions."""

import pytest

from repro.core.condition import c1, c2, c3
from repro.core.evaluator import ConditionEvaluator
from repro.core.update import Update, parse_trace
from repro.displayers.ad1 import AD1
from repro.displayers.ad2 import AD2
from repro.multicondition.combined import (
    DisjunctionCondition,
    example_4,
    trim_histories,
)
from repro.multicondition.system import DemuxAD
from tests.conftest import snapshot_of


class TestDisjunctionCondition:
    def test_degrees_are_max_over_constituents(self):
        combined = DisjunctionCondition("C", [c1(), c2()])
        assert combined.degree("x") == 2

    def test_triggers_when_any_constituent_does(self):
        combined = DisjunctionCondition("C", [c1(), c2()])
        ce = ConditionEvaluator(combined)
        # 2900 -> 3050: c1 fires (>3000), c2 does not (rise 150 < 200).
        ce.ingest(Update("x", 1, 2900.0))
        alert = ce.ingest(Update("x", 2, 3050.0))
        assert alert is not None

    def test_silent_when_no_constituent_fires(self):
        combined = DisjunctionCondition("C", [c1(), c2()])
        ce = ConditionEvaluator(combined)
        ce.ingest(Update("x", 1, 2900.0))
        assert ce.ingest(Update("x", 2, 2950.0)) is None

    def test_conservative_constituent_keeps_its_guard(self):
        # c3 inside a disjunction must not fire across a gap, while the
        # aggressive c2 in the same disjunction may.
        only_c3 = DisjunctionCondition("C", [c3()])
        ce = ConditionEvaluator(only_c3)
        ce.ingest(Update("x", 1, 400.0))
        assert ce.ingest(Update("x", 3, 720.0)) is None

        with_c2 = DisjunctionCondition("C", [c3(), c2()])
        ce2 = ConditionEvaluator(with_c2)
        ce2.ingest(Update("x", 1, 400.0))
        assert ce2.ingest(Update("x", 3, 720.0)) is not None

    def test_conservativeness_classification(self):
        assert DisjunctionCondition("C", [c3()]).is_conservative
        assert not DisjunctionCondition("C", [c3(), c2()]).is_conservative

    def test_union_of_variable_sets(self):
        from repro.core.condition import cm

        combined = DisjunctionCondition("C", [c1(), cm()])
        assert combined.variables == ("x", "y")

    def test_requires_conditions(self):
        with pytest.raises(ValueError):
            DisjunctionCondition("C", [])


class TestTrimHistories:
    def test_trims_to_degree(self):
        histories = snapshot_of(
            {"x": 3}, [Update("x", seqno, float(seqno)) for seqno in (1, 2, 3)]
        )
        trimmed = trim_histories(histories, {"x": 2})
        assert trimmed.seqnos("x") == (3, 2)

    def test_accepts_snapshot_input(self):
        histories = snapshot_of(
            {"x": 2}, [Update("x", 1, 1.0), Update("x", 2, 2.0)]
        )
        trimmed = trim_histories(histories, {"x": 1})
        assert trimmed.seqnos("x") == (2,)


class TestPerConditionAD:
    """Figure D-7(c)'s per-condition AD, :class:`DemuxAD`, fed by hand."""

    def _alert(self, cond, seqno):
        ce = ConditionEvaluator(cond)
        alerts = ce.ingest_all(
            [Update("x", s, 3100.0) for s in range(1, seqno + 1)]
        )
        return alerts[-1]

    def test_routes_by_condname(self):
        cond_a = c1(name="A")
        cond_b = c1(name="B")
        ad = DemuxAD({"A": AD2("x"), "B": AD2("x")})
        a2 = self._alert(cond_a, 2)
        b1 = self._alert(cond_b, 1)
        assert ad.offer(a2) is True
        # B's stream has its own `last`: seqno 1 still passes there.
        assert ad.offer(b1) is True
        assert ad.stream_output("A") == (a2,)
        assert ad.stream_output("B") == (b1,)

    def test_per_stream_filtering_independent(self):
        cond_a = c1(name="A")
        ad = DemuxAD({"A": AD2("x")})
        a2 = self._alert(cond_a, 2)
        a1 = self._alert(cond_a, 1)
        assert ad.offer(a2) is True
        assert ad.offer(a1) is False  # out of order within A's stream

    def test_displayed_is_arrival_interleaving(self):
        cond_a = c1(name="A")
        cond_b = c1(name="B")
        ad = DemuxAD({"A": AD1(), "B": AD1()})
        a1 = self._alert(cond_a, 1)
        b1 = self._alert(cond_b, 1)
        ad.offer_all([a1, b1])
        assert ad.output == (a1, b1)

    def test_unknown_condition_rejected(self):
        ad = DemuxAD({"A": AD1()})
        b1 = self._alert(c1(name="B"), 1)
        with pytest.raises(KeyError):
            ad.offer(b1)

    def test_requires_algorithms(self):
        with pytest.raises(ValueError):
            DemuxAD({})


class TestExample4:
    def test_both_conditions_trigger(self):
        alerts_a, alerts_b = example_4()
        assert len(alerts_a) >= 1
        assert len(alerts_b) >= 1

    def test_alerts_are_contradictory(self):
        # A says x > y; B says y > x — on the same pair of updates.
        alerts_a, alerts_b = example_4()
        assert alerts_a[0].condname == "A"
        assert alerts_b[0].condname == "B"
