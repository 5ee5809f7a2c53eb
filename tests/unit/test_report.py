"""Unit tests for per-run property evaluation and tallying."""

from repro.core.condition import c1, c2
from repro.core.evaluator import ConditionEvaluator
from repro.core.update import parse_trace
from repro.props.report import PropertyTally, evaluate_run
from repro.workloads.traces import lemma_6_example, theorem_10_example
from tests.conftest import keys_of


def run_pieces(condition, traces_text):
    traces = [parse_trace(t) for t in traces_text]
    alerts = []
    for trace in traces:
        alerts.extend(ConditionEvaluator(condition).ingest_all(trace))
    return traces, alerts


class TestEvaluateRunSingle:
    def test_all_properties_hold(self):
        condition = c1()
        traces, alerts = run_pieces(
            condition, ["1x(3100), 2x(3200)", "1x(3100), 2x(3200)"]
        )
        # Display one copy of each (what AD-1 would do with in-order arrival).
        displayed = alerts[:2]
        report = evaluate_run(condition, traces, keys_of(displayed))
        assert report.ordered
        assert report.complete
        assert report.consistent
        assert report.summary == {
            "ordered": True,
            "complete": True,
            "consistent": True,
        }

    def test_unordered_detected(self):
        condition = c1()
        traces, alerts = run_pieces(condition, ["1x(3100), 2x(3200)"])
        displayed = [alerts[1], alerts[0]]
        report = evaluate_run(condition, traces, keys_of(displayed))
        assert not report.ordered
        assert report.complete  # same alert set, wrong order

    def test_inconsistent_detected(self):
        condition = c2()
        traces, alerts = run_pieces(
            condition, ["1x(400), 2x(700), 3x(720)", "1x(400), 3x(720)"]
        )
        report = evaluate_run(condition, traces, keys_of(alerts))
        assert not report.consistent
        assert not report.complete


class TestEvaluateRunMulti:
    def test_theorem_10(self):
        example = theorem_10_example()
        displayed = [
            example.alert_streams[0][0],
            example.alert_streams[1][0],
        ]
        report = evaluate_run(
            example.condition, list(example.traces), keys_of(displayed)
        )
        assert not report.ordered
        assert not report.consistent
        assert report.complete is not None and not report.complete

    def test_completeness_skipped_when_huge(self):
        example = lemma_6_example()
        displayed = [example.alert_streams[0][0]]
        report = evaluate_run(
            example.condition,
            list(example.traces),
            keys_of(displayed),
            interleaving_limit=1,
        )
        assert report.complete is None  # skipped, not guessed


class TestPropertyTally:
    def test_counts_violations(self):
        condition = c1()
        traces, alerts = run_pieces(condition, ["1x(3100), 2x(3200)"])
        good = evaluate_run(condition, traces, keys_of(alerts))
        bad = evaluate_run(condition, traces, keys_of([alerts[1], alerts[0]]))
        tally = PropertyTally()
        tally.add(good, seed=1)
        tally.add(bad, seed=2)
        assert tally.runs == 2
        assert tally.ordered_violations == 1
        assert not tally.always_ordered
        assert tally.always_complete
        assert tally.always_consistent
        assert tally.first_unordered_seed == 2

    def test_none_verdicts_not_counted(self):
        example = lemma_6_example()
        displayed = [example.alert_streams[0][0]]
        report = evaluate_run(
            example.condition,
            list(example.traces),
            keys_of(displayed),
            interleaving_limit=1,
        )
        tally = PropertyTally()
        tally.add(report)
        assert tally.completeness_checked == 0
        assert tally.always_complete is None

    def test_cell_rendering(self):
        tally = PropertyTally()
        cell = tally.cell()
        assert cell == {"ordered": True, "complete": None, "consistent": None}

    def test_witnesses_recorded(self):
        condition = c2()
        traces, alerts = run_pieces(
            condition, ["1x(400), 2x(700), 3x(720)", "1x(400), 3x(720)"]
        )
        report = evaluate_run(condition, traces, keys_of(alerts))
        tally = PropertyTally()
        tally.add(report, seed=42)
        assert tally.first_inconsistent_seed == 42
        assert "consistent" in tally.witnesses


class TestUndecidedCompleteness:
    def _undecided_report(self):
        from repro.props.completeness import CompletenessResult
        from repro.props.orderedness import check_orderedness

        # Synthesize a report whose completeness search ran out of budget.
        ordered = check_orderedness([], ["x", "y"])
        undecided = CompletenessResult(False, undecided=True)
        from repro.props.report import PropertyReport

        return PropertyReport(ordered, undecided, None)

    def test_summary_reports_none(self):
        report = self._undecided_report()
        assert not report.completeness_decided
        assert report.summary["complete"] is None

    def test_tally_skips_undecided(self):
        report = self._undecided_report()
        tally = PropertyTally()
        tally.add(report, seed=7)
        assert tally.completeness_undecided == 1
        assert tally.completeness_checked == 0
        assert tally.completeness_violations == 0
        assert tally.always_complete is None
        assert tally.first_incomplete_seed is None

    def test_dfs_budget_exhaustion_propagates(self):
        # An aggressively small limit forces undecided end-to-end.
        example = lemma_6_example()
        displayed = [
            example.alert_streams[0][0],
            example.alert_streams[1][0],
        ]
        report = evaluate_run(
            example.condition,
            list(example.traces),
            keys_of(displayed),
            interleaving_limit=2,
        )
        # count_interleavings > 2 here, so the checker is skipped outright;
        # call the DFS directly to exercise the budget path.
        from repro.core.reference import combine_received
        from repro.props.completeness import check_completeness_multi

        per_var = combine_received(example.traces, ("x", "y"))
        result = check_completeness_multi(
            keys_of(displayed), example.condition, per_var, limit=2
        )
        assert result.undecided
        tally = PropertyTally()
        tally.add(report)
        assert tally.completeness_undecided == 0  # skipped, not undecided
