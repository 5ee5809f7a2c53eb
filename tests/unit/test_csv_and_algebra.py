"""Unit tests for CSV workload I/O and the condition algebra."""

import pytest

from repro.core.condition import c1, c2, c3
from repro.core.evaluator import ConditionEvaluator
from repro.core.update import Update
from repro.multicondition.algebra import ConjunctionCondition, NegationCondition
from repro.workloads.csv_io import (
    load_workload,
    save_workload,
    workload_from_csv,
    workload_to_csv,
)
from tests.conftest import snapshot_of


class TestWorkloadCSV:
    WORKLOAD = {
        "x": [(0.0, 2900.0), (10.0, 3100.0)],
        "y": [(5.0, 1000.0)],
    }

    def test_roundtrip(self):
        restored = workload_from_csv(workload_to_csv(self.WORKLOAD))
        assert restored == self.WORKLOAD

    def test_rows_interleaved_by_time(self):
        text = workload_to_csv(self.WORKLOAD)
        lines = text.strip().splitlines()
        assert lines[0] == "time,variable,value"
        assert lines[1].startswith("0,x")
        assert lines[2].startswith("5,y")
        assert lines[3].startswith("10,x")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "workload.csv"
        save_workload(self.WORKLOAD, str(path))
        assert load_workload(str(path)) == self.WORKLOAD

    def test_loaded_workload_runs(self, tmp_path):
        from repro.components.system import SystemConfig, run_system

        path = tmp_path / "workload.csv"
        save_workload(self.WORKLOAD, str(path))
        run = run_system(
            c1(), load_workload(str(path)), SystemConfig(front_loss=0.0), seed=1
        )
        assert [a.seqno("x") for a in run.displayed] == [2]

    def test_unsorted_rows_are_sorted_per_variable(self):
        text = "time,variable,value\n10,x,2\n0,x,1\n"
        workload = workload_from_csv(text)
        assert workload["x"] == [(0.0, 1.0), (10.0, 2.0)]

    def test_blank_lines_skipped(self):
        text = "time,variable,value\n\n0,x,1\n\n"
        assert workload_from_csv(text) == {"x": [(0.0, 1.0)]}

    def test_errors(self):
        with pytest.raises(ValueError, match="header"):
            workload_from_csv("a,b,c\n0,x,1\n")
        with pytest.raises(ValueError, match="empty CSV"):
            workload_from_csv("")
        with pytest.raises(ValueError, match="3 columns"):
            workload_from_csv("time,variable,value\n0,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            workload_from_csv("time,variable,value\n0,x,hot\n")
        with pytest.raises(ValueError, match="empty variable"):
            workload_from_csv("time,variable,value\n0,,1\n")


def feed(condition, pairs, var="x"):
    return condition.evaluate(
        snapshot_of(condition.degrees, [Update(var, s, v) for s, v in pairs])
    )


class TestConjunction:
    def test_requires_all_constituents(self):
        both = ConjunctionCondition("both", [c1(), c2()])
        # 2900 -> 3150: c1 true (>3000), c2 true (rise 250 > 200).
        assert feed(both, [(1, 2900.0), (2, 3150.0)])
        # 2900 -> 3050: c1 true but rise only 150.
        assert not feed(both, [(1, 2900.0), (2, 3050.0)])
        # 400 -> 700: rise 300 but below 3000.
        assert not feed(both, [(1, 400.0), (2, 700.0)])

    def test_degrees_max(self):
        both = ConjunctionCondition("both", [c1(), c2()])
        assert both.degree("x") == 2

    def test_conservative_if_any_constituent_is(self):
        assert ConjunctionCondition("c", [c3(), c2()]).is_conservative
        assert not ConjunctionCondition("c", [c2()]).is_conservative

    def test_conservative_constituent_blocks_gap_trigger(self):
        both = ConjunctionCondition("both", [c3()])
        assert not feed(both, [(1, 400.0), (3, 720.0)])

    def test_requires_conditions(self):
        with pytest.raises(ValueError):
            ConjunctionCondition("c", [])


class TestNegation:
    def test_flips_satisfaction(self):
        not_hot = NegationCondition("calm", c1())
        assert feed(not_hot, [(1, 2900.0)])
        assert not feed(not_hot, [(1, 3100.0)])

    def test_preserves_degrees(self):
        assert NegationCondition("n", c2()).degree("x") == 2

    def test_negated_conservative_is_aggressive(self):
        negated = NegationCondition("n", c3())
        assert negated.is_aggressive
        # Across a gap c3 is false, so its negation triggers — the
        # aggressive behaviour the classification must reflect.
        assert feed(negated, [(1, 400.0), (3, 720.0)])

    def test_negation_of_nonhistorical_trivially_conservative(self):
        assert NegationCondition("n", c1()).is_conservative

    def test_compose_with_conjunction(self):
        # "overheating AND NOT rising": alert on sustained heat.
        condition = ConjunctionCondition(
            "sustained", [c1(), NegationCondition("flat", c2())]
        )
        ce = ConditionEvaluator(condition)
        ce.ingest(Update("x", 1, 3050.0))
        alert = ce.ingest(Update("x", 2, 3100.0))  # hot, rise only 50
        assert alert is not None
        assert ce.ingest(Update("x", 3, 3400.0)) is None  # rise 300
