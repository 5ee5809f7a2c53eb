"""Unit tests for JSON serialization of traces, alerts, conditions and
counterexamples."""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alert import Alert
from repro.core.condition import PredicateCondition, c1, c2, c3, cm
from repro.core.evaluator import ConditionEvaluator
from repro.core.history import HistorySnapshot
from repro.core.serialization import (
    alert_canonical_line,
    alert_from_json,
    alert_to_json,
    condition_from_json,
    condition_to_json,
    counterexample_from_json,
    counterexample_to_json,
    dump_counterexample,
    expression_to_text,
    load_counterexample,
    trace_from_json,
    trace_to_json,
    update_from_json,
    update_to_json,
)
from repro.core.update import Update, parse_trace


class TestUpdateRoundTrip:
    def test_roundtrip(self):
        update = Update("x", 7, 3000.5)
        restored = update_from_json(update_to_json(update))
        assert restored == update
        assert restored.value == update.value

    def test_trace_roundtrip(self):
        trace = parse_trace("1x(2900), 2x(3100), 3x(3200)")
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_json_serializable(self):
        text = json.dumps(trace_to_json(parse_trace("1x(1), 2x(2)")))
        assert "seqno" in text

    def test_validation_via_constructor(self):
        with pytest.raises(ValueError):
            update_from_json({"var": "x", "seqno": -1, "value": 0.0})


class TestAlertRoundTrip:
    def _alert(self):
        ce = ConditionEvaluator(c2(), source="CE1")
        ce.ingest_all(parse_trace("1x(100), 3x(400)"))
        (alert,) = ce.alerts
        return alert

    def test_roundtrip_preserves_identity(self):
        alert = self._alert()
        restored = alert_from_json(alert_to_json(alert))
        assert restored.identity() == alert.identity()
        assert restored.source == "CE1"
        assert restored.histories.seqnos("x") == (3, 1)

    def test_corrupted_history_rejected(self):
        data = alert_to_json(self._alert())
        data["histories"]["x"].reverse()  # breaks most-recent-first order
        with pytest.raises(ValueError):
            alert_from_json(data)


# Names that need JSON escaping (quotes, backslashes, control characters,
# non-ASCII, astral planes) mixed with plain ones.
_names = st.one_of(
    st.sampled_from(["x", "y", 'q"uote', "back\\slash", "new\nline", "é", "\U0001f600"]),
    st.text(min_size=1, max_size=6),
)
# Finite floats take the direct path; ints, bools and non-finite floats the
# json.dumps fallback.  The edge cases named are where repr and JSON could
# conceivably part ways.
_values = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e22, 1e16, 1e-7, 0.1, 3000.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.integers(-10**6, 10**6),
    st.booleans(),
)


@st.composite
def _alerts(draw):
    histories = {}
    for var in draw(st.lists(_names, min_size=1, max_size=3, unique=True)):
        seqnos = sorted(
            draw(st.lists(st.integers(0, 2**64), min_size=1, max_size=3, unique=True)),
            reverse=True,
        )
        histories[var] = tuple(Update(var, seqno, draw(_values)) for seqno in seqnos)
    return Alert(draw(_names), HistorySnapshot(histories), draw(st.one_of(st.just(""), _names)))


class TestCanonicalLine:
    @given(_alerts())
    @settings(max_examples=300, deadline=None)
    def test_equals_sorted_compact_json_dumps(self, alert):
        assert alert_canonical_line(alert) == json.dumps(
            alert_to_json(alert), sort_keys=True, separators=(",", ":")
        )

    def test_multi_variable_histories_render_sorted(self):
        alert = Alert(
            "c",
            HistorySnapshot({
                "y": (Update("y", 2, 1e22),),
                "x": (Update("x", 3, -0.0), Update("x", 1, 5e-324)),
            }),
            "CE2",
        )
        assert alert_canonical_line(alert) == (
            '{"condname":"c","histories":{'
            '"x":[{"seqno":3,"value":-0.0,"var":"x"},'
            '{"seqno":1,"value":5e-324,"var":"x"}],'
            '"y":[{"seqno":2,"value":1e+22,"var":"y"}]},"source":"CE2"}'
        )


class TestSlottedPayloads:
    """The three payload classes a batch holds by the 10^5 are slotted;
    nothing a caller could see of them changed with the layout."""

    @staticmethod
    def payloads(alert):
        update = alert.histories[alert.histories.variables[0]][0]
        return [update, alert.histories, alert]

    @given(_alerts())
    @settings(max_examples=50, deadline=None)
    def test_no_dict_and_no_stray_attributes(self, alert):
        for payload in self.payloads(alert):
            assert not hasattr(payload, "__dict__")
            with pytest.raises((AttributeError, TypeError)):
                payload.stray = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(payload, dataclasses.fields(payload)[0].name, None)

    @given(_alerts())
    @settings(max_examples=100, deadline=None)
    def test_copies_are_equal_and_hash_equal(self, alert):
        for payload in self.payloads(alert):
            for copied in (
                pickle.loads(pickle.dumps(payload)),
                copy.deepcopy(payload),
                dataclasses.replace(payload),
            ):
                assert copied is not payload
                assert copied == payload
                assert hash(copied) == hash(payload)
        # ... down to what equality does not look at.
        restored = pickle.loads(pickle.dumps(alert))
        assert alert_canonical_line(restored) == alert_canonical_line(alert)

    @given(_alerts(), _values, _names)
    @settings(max_examples=100, deadline=None)
    def test_identity_is_seqnos_only(self, alert, value, source):
        histories = alert.histories
        assert histories.identity() == tuple(
            (var, tuple(update.seqno for update in histories[var]))
            for var in sorted(histories.variables)
        )
        assert alert.identity() == (alert.condname, histories.identity())
        # Values and the emitting CE are evidence, not identity.
        revalued = HistorySnapshot(
            {var: tuple(u.replace_value(value) for u in histories[var])
             for var in histories}
        )
        assert revalued == histories and hash(revalued) == hash(histories)
        assert Alert(alert.condname, revalued, source) == alert
        assert alert.with_source(source).identity() == alert.identity()
        assert HistorySnapshot.from_trusted(
            {var: histories[var] for var in histories}
        ) == histories
        # One more x-update in H is a different H.
        var = histories.variables[0]
        longer = (Update(var, histories.seqno(var) + 1, 0.0), *histories[var])
        assert HistorySnapshot({**{v: histories[v] for v in histories}, var: longer}) != histories
        assert histories != histories.identity()

    def test_the_evaluators_trusted_constructor_fills_the_same_slots(self):
        ce = ConditionEvaluator(c2(), source="CE1")
        (alert,) = ce.ingest_all(parse_trace("1x(100), 3x(400)"))
        assert alert == Alert("c2", HistorySnapshot({"x": tuple(reversed(ce.received))}))
        assert (alert.source, alert.histories.seqnos("x")) == ("CE1", (3, 1))
        assert pickle.loads(pickle.dumps(alert)).source == "CE1"


def identity_from_scratch(snapshot):
    return tuple(
        (var, tuple(update.seqno for update in snapshot[var]))
        for var in sorted(snapshot.variables)
    )


def evaluated_snapshot(histories):
    """The snapshot an always-true condition's evaluator raises on H."""
    condition = PredicateCondition(
        "p", {var: len(histories[var]) for var in histories}, lambda h: True
    )
    evaluator = ConditionEvaluator(condition)
    for var in histories:
        for update in reversed(histories[var]):
            evaluator.ingest(update)
    return evaluator.alerts[-1].histories


class TestSnapshotMemo:
    """A snapshot computes its seqno identity once and keeps it; every
    way of making one answers exactly as a from-scratch computation."""

    @staticmethod
    def constructions(alert):
        histories = alert.histories
        entries = {var: histories[var] for var in histories}
        fresh = {
            "init": HistorySnapshot(entries),
            "from_trusted": HistorySnapshot.from_trusted(entries),
            "alert_from_json": alert_from_json(alert_to_json(alert)).histories,
        }
        for snapshot in fresh.values():
            assert snapshot._identity is None
        memoized = HistorySnapshot(entries)
        memoized.identity()
        made = dict(fresh)
        for name, original in (("plain", HistorySnapshot(entries)), ("memoized", memoized)):
            made[f"pickle-{name}"] = pickle.loads(pickle.dumps(original))
            made[f"deepcopy-{name}"] = copy.deepcopy(original)
            made[f"replace-{name}"] = dataclasses.replace(original)
        assert made["replace-memoized"]._identity is None
        made["memoized"] = memoized
        # The evaluator's alert arrives memoized, with its step's key.
        made["evaluator"] = evaluated_snapshot(histories)
        assert made["evaluator"]._identity is not None
        return made

    @given(_alerts())
    @settings(max_examples=100, deadline=None)
    def test_every_construction_answers_as_from_scratch(self, alert):
        expected = identity_from_scratch(alert.histories)
        for name, snapshot in self.constructions(alert).items():
            assert snapshot.identity() == expected, name
            for var, seqnos in expected:
                assert snapshot.seqnos(var) == seqnos, name
            assert Alert(alert.condname, snapshot).identity() == (
                alert.condname, expected
            ), name

    @given(_alerts())
    @settings(max_examples=100, deadline=None)
    def test_memoized_and_unmemoized_compare_and_hash_equal(self, alert):
        snapshots = list(self.constructions(alert).values())
        unmemoized = HistorySnapshot.from_trusted(
            {var: alert.histories[var] for var in alert.histories}
        )
        for snapshot in snapshots:
            assert snapshot == unmemoized and unmemoized == snapshot
            assert hash(snapshot) == hash(unmemoized)
            assert Alert(alert.condname, snapshot) == Alert(alert.condname, unmemoized)
        assert len(set(snapshots)) == 1

    def test_computed_once_then_shared(self):
        snapshot = HistorySnapshot(
            {"y": (Update("y", 4),), "x": (Update("x", 5), Update("x", 2))}
        )
        identity = snapshot.identity()
        assert snapshot.identity() is identity
        assert snapshot.seqnos("x") is identity[0][1]
        assert Alert("c", snapshot).identity()[1] is identity
        with pytest.raises(KeyError):
            snapshot.seqnos("z")


class TestConditionRoundTrip:
    @pytest.mark.parametrize("factory", [c1, c2, c3, cm])
    def test_canonical_conditions(self, factory):
        condition = factory()
        restored = condition_from_json(condition_to_json(condition))
        assert restored.name == condition.name
        assert restored.degrees == condition.degrees
        assert restored.is_conservative == condition.is_conservative

    def test_behavioural_equivalence(self):
        condition = c3()
        restored = condition_from_json(condition_to_json(condition))
        trace = parse_trace("1x(100), 2x(350), 4x(800), 5x(1100)")
        original_alerts = ConditionEvaluator(condition).ingest_all(trace)
        restored_alerts = ConditionEvaluator(restored).ingest_all(trace)
        assert [a.seqno("x") for a in original_alerts] == [
            a.seqno("x") for a in restored_alerts
        ]

    def test_expression_text_parses(self):
        from repro.core.parser import parse_expression

        text = expression_to_text(cm().expression)
        parse_expression(text)  # must not raise

    def test_predicate_condition_rejected(self):
        condition = PredicateCondition("p", {"x": 1}, lambda h: True)
        with pytest.raises(TypeError):
            condition_to_json(condition)


class TestCounterexampleRoundTrip:
    def _counterexample(self):
        from repro.analysis.witness import counterexample_from_run
        from repro.workloads.scenarios import SINGLE_VARIABLE_SCENARIOS, run_scenario

        scenario = SINGLE_VARIABLE_SCENARIOS["aggressive"]
        for seed in range(200):
            run = run_scenario(scenario, "AD-1", seed, n_updates=20)
            counterexample = counterexample_from_run(run)
            if counterexample is not None and counterexample.violation == "consistent":
                return counterexample
        pytest.fail("no counterexample found")

    def test_roundtrip(self):
        original = self._counterexample()
        restored = counterexample_from_json(counterexample_to_json(original))
        assert restored.violation == original.violation
        assert restored.traces == original.traces
        assert restored.arrival_pattern == original.arrival_pattern
        assert [a.identity() for a in restored.displayed] == [
            a.identity() for a in original.displayed
        ]

    def test_restored_counterexample_still_violates(self):
        from repro.analysis.witness import find_violation, replay
        from repro.displayers.ad1 import AD1

        original = self._counterexample()
        restored = counterexample_from_json(counterexample_to_json(original))
        _, report = replay(
            restored.condition,
            restored.traces,
            restored.arrival_pattern,
            AD1,
        )
        assert find_violation(report) == "consistent"

    def test_file_roundtrip(self, tmp_path):
        original = self._counterexample()
        path = tmp_path / "counterexample.json"
        dump_counterexample(original, str(path))
        restored = load_counterexample(str(path))
        assert restored.traces == original.traces
