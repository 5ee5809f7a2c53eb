"""Unit tests for the completeness checkers."""

import pytest

from repro.core.condition import c1, c3, cm
from repro.core.evaluator import ConditionEvaluator
from repro.core.reference import (
    apply_T,
    combine_received,
    merge_single_variable,
)
from repro.core.update import parse_trace
from repro.props.completeness import (
    CompletenessResult,
    check_completeness_multi,
    check_completeness_single,
)
from repro.workloads.scenarios import cm_historical
from repro.workloads.traces import lemma_6_example
from repro.props.report import evaluate_run
from tests.conftest import (
    alert_xy,
    check_completeness_multi_enumerated,
    is_interleaving_of,
    keys_of,
)


class TestSingleVariable:
    def test_complete_when_all_alerts_present(self):
        condition = c1()
        u1 = parse_trace("1x(2900), 2x(3100), 3x(3200)")
        u2 = parse_trace("1x(2900), 3x(3200)")
        merged = merge_single_variable(u1, u2)
        # AD-1 union of A1 and A2 (deduplicated) = alerts at 2 and 3.
        a1 = ConditionEvaluator(condition).ingest_all(u1)
        displayed = a1  # a2's single alert is a duplicate of a1's second
        assert check_completeness_single(keys_of(displayed), condition, merged)

    def test_missing_alert_detected(self):
        condition = c1()
        u1 = parse_trace("1x(3100)")
        u2 = parse_trace("2x(3200)")
        merged = merge_single_variable(u1, u2)
        a2 = ConditionEvaluator(condition).ingest_all(u2)
        result = check_completeness_single(keys_of(a2), condition, merged)
        assert not result
        assert len(result.missing) == 1
        assert not result.extraneous

    def test_extraneous_alert_detected(self):
        # Theorem 3's example: alerts a(2) and a(4) vs T(U1⊔U2) = {2,3,4}.
        condition = c3()
        u1 = parse_trace("1x(1000), 2x(1500)")
        u2 = parse_trace("3x(2000), 4x(2500)")
        merged = merge_single_variable(u1, u2)
        a1 = ConditionEvaluator(condition).ingest_all(u1)
        a2 = ConditionEvaluator(condition).ingest_all(u2)
        result = check_completeness_single(keys_of(a1 + a2), condition, merged)
        assert not result
        # a(4x,3x) IS produced by T on merged input (3,4 consecutive), but
        # a(3x,2x) is missing from the displayed set.
        assert len(result.missing) == 1

    def test_empty_alerts_empty_reference(self):
        condition = c1()
        merged = parse_trace("1x(100)")  # never triggers
        assert check_completeness_single([], condition, merged)


class TestMultiVariable:
    def test_lemma_6_incomplete(self):
        example = lemma_6_example()
        displayed = [
            example.alert_streams[0][0],
            example.alert_streams[1][0],
        ]
        per_var = combine_received(example.traces, ("x", "y"))
        result = check_completeness_multi(
            keys_of(displayed), example.condition, per_var
        )
        assert not result

    def test_witnessing_interleaving_found(self):
        # A single CE's own alerts are trivially complete for its own
        # interleaving.
        example = lemma_6_example()
        displayed = list(example.alert_streams[0])
        per_var = {
            "x": [u for u in example.traces[0] if u.varname == "x"],
            "y": [u for u in example.traces[0] if u.varname == "y"],
        }
        result = check_completeness_multi(
            keys_of(displayed), example.condition, per_var
        )
        assert result
        assert result.witness_interleaving is not None

    def test_limit_yields_undecided(self):
        per_var = {
            "x": parse_trace(", ".join(f"{i}x" for i in range(1, 15))),
            "y": parse_trace(", ".join(f"{i}y" for i in range(1, 15))),
        }
        result = check_completeness_multi([], cm(), per_var, limit=3)
        assert not result
        assert result.undecided

    def test_enumerated_oracle_limit_raises(self):
        per_var = {
            "x": parse_trace(", ".join(f"{i}x" for i in range(1, 15))),
            "y": parse_trace(", ".join(f"{i}y" for i in range(1, 15))),
        }
        with pytest.raises(RuntimeError):
            check_completeness_multi_enumerated([], cm(), per_var, limit=100)

    def test_enumerated_oracle_matches_dfs(self):
        example = lemma_6_example()
        per_var = combine_received(example.traces, ("x", "y"))
        for displayed in (
            [example.alert_streams[0][0], example.alert_streams[1][0]],
            list(example.alert_streams[0]),
        ):
            dfs = check_completeness_multi(
                keys_of(displayed), example.condition, per_var
            )
            enum = check_completeness_multi_enumerated(
                displayed, example.condition, per_var
            )
            assert bool(dfs) == bool(enum)
            assert dfs.missing == enum.missing
            assert dfs.extraneous == enum.extraneous


class TestGridLayers:
    """One test per rule of the two-layer multi-variable checker; each
    verdict is also the enumeration oracle's, field for field."""

    @staticmethod
    def both(displayed, condition, per_var, **kwargs):
        result = check_completeness_multi(
            keys_of(displayed), condition, per_var, **kwargs
        )
        assert result == check_completeness_multi_enumerated(
            displayed, condition, per_var
        )
        return result

    def test_gap_history_is_raised_on_no_interleaving(self):
        # CE1 lost 2x and alerts on a(3x,1x; 1y); CE2 did receive 2x, so in
        # every UV the window under head 3x is ⟨3x,2x⟩ — first layer, ✗.
        condition = cm_historical(conservative=False)
        u1 = parse_trace("1x(0), 1y(0), 3x(300)")
        u2 = parse_trace("1x(0), 1y(0), 2x(10), 3x(300)")
        (lossy,) = ConditionEvaluator(condition, "CE1").ingest_all(u1)
        (whole,) = ConditionEvaluator(condition, "CE2").ingest_all(u2)
        assert (lossy.shorthand(), whole.shorthand()) == (
            "a(3x,1x; 1y)", "a(3x,2x; 1y)"
        )
        per_var = combine_received([u1, u2], ("x", "y"))
        result = self.both([lossy], condition, per_var)
        assert not result
        assert result.missing == {whole.identity()}
        assert result.extraneous == {lossy.identity()}
        both = self.both([whole, lossy], condition, per_var)
        assert not both
        assert (both.missing, both.extraneous) == (set(), {lossy.identity()})
        assert self.both([whole], condition, per_var)

    def test_a_head_nobody_received(self):
        # cm holds on every pair below, but 5x is in no CE's trace.
        per_var = {"x": parse_trace("1x(500), 2x(500)"), "y": parse_trace("1y(0)")}
        assert self.both([alert_xy(1, 1), alert_xy(2, 1)], cm(), per_var)
        foreign = self.both([alert_xy(1, 1), alert_xy(5, 1)], cm(), per_var)
        assert not foreign
        assert alert_xy(5, 1).identity() in foreign.extraneous
        # ... nor is an alert of some other condition one of T's.
        assert not self.both([alert_xy(1, 1, cond="other")], cm(), per_var)

    def test_an_alert_where_the_condition_does_not_hold(self):
        per_var = {"x": parse_trace("1x(500), 2x(0)"), "y": parse_trace("1y(0)")}
        assert self.both([alert_xy(1, 1)], cm(), per_var)
        assert not self.both([alert_xy(1, 1), alert_xy(2, 1)], cm(), per_var)

    def test_incomparable_heads_share_no_interleaving(self):
        # a(2x; 1y) needs 2x before 2y, a(1x; 2y) needs 2y before 2x.
        per_var = {
            "x": parse_trace("1x(500), 2x(500)"),
            "y": parse_trace("1y(0), 2y(0)"),
        }
        result = self.both([alert_xy(2, 1), alert_xy(1, 2)], cm(), per_var)
        assert not result

    def test_a_failing_search_decides_within_the_grid(self):
        # Lemma 6: (8x,3y) sits on every path from (8x,2y) to (8x,4y).
        example = lemma_6_example()
        displayed = [example.alert_streams[0][0], example.alert_streams[1][0]]
        per_var = combine_received(example.traces, ("x", "y"))
        grid = (len(per_var["x"]) + 1) * (len(per_var["y"]) + 1)
        result = self.both(displayed, example.condition, per_var, limit=grid)
        assert not result and not result.undecided

    def test_a_complete_run_decides_within_the_grid_with_a_real_witness(self):
        condition = cm()
        u1 = parse_trace("1x(500), 1y(0), 2x(50), 2y(400), 3x(0)")
        u2 = parse_trace("1y(0), 1x(500), 2y(400), 3y(50), 2x(50)")
        displayed = ConditionEvaluator(condition).ingest_all(u1)
        per_var = combine_received([u1, u2], ("x", "y"))
        grid = (len(per_var["x"]) + 1) * (len(per_var["y"]) + 1)
        result = self.both(displayed, condition, per_var, limit=grid)
        assert result and not result.undecided
        witness = list(result.witness_interleaving)
        assert is_interleaving_of(witness, per_var)
        assert frozenset(a.identity() for a in apply_T(condition, witness)) == (
            frozenset(a.identity() for a in displayed)
        )

    def test_a_malformed_key_is_rejected_by_the_first_layer(self):
        # cm_aggr holds only where x's window is ⟨3x,2x⟩ (a rise of 200;
        # 4x rises by 50), so A = {a(3x,2x; 1y)} is complete and each
        # malformed key below must be rejected exactly as its mismatch
        # with the window vector of the point its heads name rejects it:
        # verdict, missing and extraneous all the enumeration oracle's.
        condition = cm_historical(conservative=False)
        per_var = {
            "x": parse_trace("1x(0), 2x(0), 3x(200), 4x(250)"),
            "y": parse_trace("1y(0), 2y(0)"),
        }

        class Keyed:
            def __init__(self, histories, name="cm_aggr"):
                self.key = (name, histories)

            def identity(self):
                return self.key

        right = Keyed((("x", (3, 2)), ("y", (1,))))
        assert self.both([right], condition, per_var)
        malformed = {
            "another condition": Keyed(right.key[1], name="cm_cons"),
            "variables out of order": Keyed((("y", (1,)), ("x", (3, 2)))),
            "a variable outside the condition": Keyed(
                (("x", (3, 2)), ("z", (1,)))
            ),
            "one variable too many": Keyed(
                (("x", (3, 2)), ("y", (1,)), ("z", (1,)))
            ),
            "a window shorter than the degree": Keyed((("x", (3,)), ("y", (1,)))),
            "a short window where none is defined": Keyed(
                (("x", (1,)), ("y", (1,)))
            ),
            "a window longer than the degree": Keyed(
                (("x", (3, 2, 1)), ("y", (1,)))
            ),
            "a window longer than the degree in y": Keyed(
                (("x", (3, 2)), ("y", (2, 1)))
            ),
            "a right head over a wrong deeper seqno": Keyed(
                (("x", (3, 1)), ("y", (1,)))
            ),
            "a right head over a seqno nobody sent": Keyed(
                (("x", (3, 9)), ("y", (1,)))
            ),
        }
        for case, key in malformed.items():
            for displayed in ([key], [right, key]):
                result = self.both(displayed, condition, per_var)
                assert not result, case
                assert key.identity() in result.extraneous, case

    def test_a_run_that_repeats_a_seqno_is_rejected(self):
        per_var = {"x": parse_trace("1x(500), 1x(500)"), "y": parse_trace("1y(0)")}
        with pytest.raises(ValueError):
            check_completeness_multi([], cm(), per_var)
        with pytest.raises(ValueError):
            check_completeness_multi_enumerated([], cm(), per_var)


class TestDispatch:
    """``evaluate_run`` combines the CE traces, then picks the checker by
    the condition's variable count."""

    def test_single_variable_dispatch(self):
        condition = c1()
        u1 = parse_trace("1x(3100)")
        u2 = parse_trace("2x(3200)")
        a1 = ConditionEvaluator(condition).ingest_all(u1)
        a2 = ConditionEvaluator(condition).ingest_all(u2)
        assert evaluate_run(condition, [u1, u2], keys_of(a1 + a2)).complete

    def test_multi_variable_dispatch(self):
        example = lemma_6_example()
        displayed = [
            example.alert_streams[0][0],
            example.alert_streams[1][0],
        ]
        assert not evaluate_run(
            example.condition, list(example.traces), keys_of(displayed)
        ).complete


class TestDeferredDiagnosis:
    """The service's ✗ verdict builds ``missing``/``extraneous`` on first
    read, and is then indistinguishable from the eager one: golden
    reports compare these fields and pooled engines pickle them."""

    @staticmethod
    def theorem_3():
        # Theorem 3's example: window (3, 2) is missing.
        condition = c3()
        u1 = parse_trace("1x(1000), 2x(1500)")
        u2 = parse_trace("3x(2000), 4x(2500)")
        alerts = ConditionEvaluator(condition).ingest_all(u1) + (
            ConditionEvaluator(condition).ingest_all(u2)
        )
        return condition, (u1, u2), alerts

    @staticmethod
    def folded(condition, traces, displayed):
        """The service's running completeness verdict of one run."""
        from repro.props.fold import VerdictFold

        fold = VerdictFold(condition, len(traces))
        for trace, updates in enumerate(traces):
            fold.receive(trace, updates)
        fold.display([alert.identity() for alert in displayed])
        return fold.report().complete

    def test_a_deferred_result_is_its_eager_twin(self):
        import pickle

        def make():
            return self.folded(*self.theorem_3())

        read = make()
        eager = CompletenessResult(
            False, missing=read.missing, extraneous=read.extraneous
        )
        assert read.missing and not read.extraneous
        for probe in (
            lambda r: r == eager and eager == r,
            lambda r: hash(r) == hash(eager),
            lambda r: repr(r) == repr(eager),
            lambda r: pickle.dumps(r) == pickle.dumps(eager),
            lambda r: pickle.loads(pickle.dumps(r)) == eager,
        ):
            fresh = make()
            assert "_diagnose" in vars(fresh)  # nothing built yet
            assert not fresh and not fresh.undecided
            assert probe(fresh)
            assert "_diagnose" not in vars(fresh)
        assert make() != CompletenessResult(False)

    def test_a_batch_verdict_is_diagnosed_at_once(self):
        # It lives on in a report; the fold's is its twin.
        condition, (u1, u2), alerts = self.theorem_3()
        batch = check_completeness_single(
            keys_of(alerts), condition, merge_single_variable(u1, u2)
        )
        assert "_diagnose" not in vars(batch)
        assert batch == self.folded(condition, (u1, u2), alerts)

    def test_pooled_reports_equal_the_folded_verdicts(self):
        # Each pooled report crossed a process boundary as a pickle; the
        # fold's deferred verdict of the same run must equal it.
        import pickle

        from repro.engine import TrialEngine, TrialSpec

        specs = [
            TrialSpec("single", "aggressive", "AD-1", seed, 12)
            for seed in range(6)
        ]
        with TrialEngine(processes=2) as engine:
            pooled = engine.run(specs)
        folded = []
        for spec in specs:
            run = spec.run()
            folded.append(
                self.folded(run.condition, run.received, run.displayed)
            )
        assert sum("_diagnose" in vars(c) for c in folded) >= 2
        assert [r.complete for r in pooled] == folded
        assert [hash(r.complete) for r in pooled] == list(map(hash, folded))
        assert [r.complete for r in pooled] == [
            pickle.loads(pickle.dumps(c)) for c in folded
        ]
