"""Unit tests for the observability layer: events, tracers, trace files,
rejection reasons and the ``repro trace`` CLI."""

import json

import pytest

from repro.cli import main
from repro.core.alert import make_alert
from repro.core.update import Update
from repro.displayers import AD1, AD2, AD3, AD4, AD5, AD6
from repro.displayers.registry import make_ad
from tests.conftest import RETIRED_SPEC_FIELD, alert_deg1, alert_deg2, alert_xy
from repro.engine.spec import TrialSpec
from repro.observability import (
    SCHEMA_VERSION,
    CountersTracer,
    MemoryTracer,
    NullTracer,
    ReasonCountersTracer,
    RecordedTrace,
    TraceEvent,
    Tracer,
    TraceSchemaError,
    event_from_json_obj,
    load_trace,
    record_trial,
    replay_trace,
    summarize_trace,
)


class TestTraceEvent:
    def test_json_line_is_canonical(self):
        event = TraceEvent(1.5, "link", "drop", "DM-x->CE1",
                           {"tag": 3, "reason": "loss"})
        line = event.json_line()
        assert line == (
            '{"data":{"reason":"loss","tag":3},"kind":"drop",'
            '"node":"DM-x->CE1","stage":"link","t":1.5}'
        )

    def test_json_round_trip(self):
        event = TraceEvent(2.0, "ad", "filter", "AD", {"reason": "duplicate"})
        decoded = event_from_json_obj(json.loads(event.json_line()))
        assert decoded == event
        assert decoded.json_line() == event.json_line()

    def test_empty_data_is_omitted(self):
        event = TraceEvent(0.0, "kernel", "fire", "")
        assert "data" not in event.to_json_obj()
        assert event_from_json_obj(json.loads(event.json_line())) == event

    def test_counter_key(self):
        tracer = CountersTracer()
        tracer.emit(0.0, "ce", "missed", "CE2")
        assert tracer.as_dict() == {"ce/missed/CE2": 1}


class TestTracers:
    def test_all_implementations_satisfy_the_protocol(self):
        for tracer in (NullTracer(), MemoryTracer(), CountersTracer()):
            assert isinstance(tracer, Tracer)

    def test_memory_tracer_records_in_order(self):
        tracer = MemoryTracer()
        tracer.emit(1.0, "link", "send", "L", tag=0)
        tracer.emit(2.0, "link", "deliver", "L", tag=0)
        assert len(tracer.events) == 2
        assert [e.kind for e in tracer.events] == ["send", "deliver"]
        assert tracer.event_lines() == [e.json_line() for e in tracer.events]

    def test_counters_tracer_counts_and_aggregates(self):
        tracer = CountersTracer()
        tracer.emit(1.0, "link", "send", "A")
        tracer.emit(2.0, "link", "send", "A")
        tracer.emit(3.0, "link", "send", "B")
        tracer.emit(4.0, "link", "drop", "A", reason="loss")
        assert tracer.as_dict() == {
            "link/drop/A": 1, "link/send/A": 2, "link/send/B": 1,
        }
        assert tracer.total("link", "send") == 3
        assert tracer.stage_summary() == {"link": {"drop": 1, "send": 3}}

    def test_null_tracer_swallows_everything(self):
        NullTracer().emit(0.0, "kernel", "fire", "", seq=1)

    def test_reason_counters_tracer_fans_kinds_out_by_reason(self):
        tracer = ReasonCountersTracer()
        tracer.emit(1.0, "link", "drop", "L", reason="loss")
        tracer.emit(2.0, "link", "drop", "L", reason="burst")
        tracer.emit(3.0, "link", "send", "L")
        assert tracer.as_dict() == {
            "link/drop:burst/L": 1, "link/drop:loss/L": 1, "link/send/L": 1,
        }

    def test_reason_counters_tracer_truncates_to_the_reason_class(self):
        # AD rejection reasons carry per-run detail after the colon; a
        # coverage key must not mint one counter per seqno pair.
        tracer = ReasonCountersTracer()
        tracer.emit(1.0, "ad", "filter", "AD",
                    reason="seqno regression: a.seqno.x=13 <= 13")
        tracer.emit(2.0, "ad", "filter", "AD",
                    reason="seqno regression: a.seqno.x=14 <= 14")
        assert tracer.as_dict() == {"ad/filter:seqno regression/AD": 2}

    def test_order_free_hook_counts_batches_under_the_emit_keys(self):
        """``count`` is what an order-free tracer is served through: it
        must land on the keys ``emit`` would have produced, fold ``n``
        occurrences at once, and never mint a zero-valued key."""
        plain, by_reason = CountersTracer(), ReasonCountersTracer()
        for tracer in (plain, by_reason):
            assert tracer.order_free
            tracer.count("link", "send", "L", n=3)
            tracer.count("link", "drop", "L", "loss", 2)
            tracer.count("ad", "filter", "AD", "duplicate: already shown")
            tracer.count("link", "hold", "L", n=0)
        assert plain.as_dict() == {
            "ad/filter/AD": 1, "link/drop/L": 2, "link/send/L": 3,
        }
        assert by_reason.as_dict() == {
            "ad/filter:duplicate/AD": 1, "link/drop:loss/L": 2, "link/send/L": 3,
        }
        for ordered in (NullTracer(), MemoryTracer()):
            assert not getattr(ordered, "order_free", False)


class TestTraceFiles:
    SPEC = TrialSpec("single", "non-historical", "AD-1", 42, 8)

    def test_write_load_round_trip(self, tmp_path):
        trace = record_trial(self.SPEC)
        path = trace.write(tmp_path / "run.jsonl")
        loaded = load_trace(path)
        assert loaded.schema == SCHEMA_VERSION
        assert loaded.spec == trace.spec
        assert loaded.metrics == trace.metrics
        assert loaded.event_lines() == trace.event_lines()
        # Serialisation is stable: writing the loaded trace reproduces the
        # file byte for byte.
        assert loaded.to_jsonl() == trace.to_jsonl()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceSchemaError, match="empty"):
            load_trace(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"record":"event","t":0,"stage":"x","kind":"y","node":""}\n')
        with pytest.raises(TraceSchemaError, match="header"):
            load_trace(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"record":"header","schema":"repro.trace/99","spec":{}}\n'
        )
        with pytest.raises(TraceSchemaError, match="repro.trace/99"):
            load_trace(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        trace = record_trial(self.SPEC)
        path = trace.write(tmp_path / "run.jsonl")
        path.write_text(path.read_text() + '{"record":"mystery"}\n')
        with pytest.raises(TraceSchemaError, match="mystery"):
            load_trace(path)

    @pytest.mark.parametrize(
        "tamper, named",
        [
            pytest.param(
                # Traces recorded while specs carried a shard ring.
                lambda spec: spec.update(sharding=None),
                "trace spec has an unknown field 'sharding'",
                id="retired-field",
            ),
            pytest.param(
                # Traces recorded while specs carried the identity-set
                # delivery flag.
                lambda spec: spec.update({RETIRED_SPEC_FIELD: False}),
                f"trace spec has an unknown field '{RETIRED_SPEC_FIELD}'",
                id="retired-collect-delivery",
            ),
            pytest.param(
                lambda spec: spec.pop("seed"), "trace spec has no 'seed' field",
                id="missing-field",
            ),
        ],
    )
    def test_bad_spec_field_is_named(self, tmp_path, tamper, named):
        header, *rest = record_trial(self.SPEC).to_jsonl().splitlines()
        header = json.loads(header)
        tamper(header["spec"])
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([json.dumps(header), *rest]) + "\n")
        with pytest.raises(TraceSchemaError, match=named):
            load_trace(path)

    def test_replay_detects_tampering(self, tmp_path):
        trace = record_trial(self.SPEC)
        tampered = RecordedTrace(
            spec=trace.spec,
            events=trace.events[:-1],  # drop the final event
            metrics=trace.metrics,
        )
        result = replay_trace(tampered)
        assert not result.events_identical
        assert not result
        index, recorded, replayed = result.first_divergence
        assert index == len(trace.events) - 1
        assert recorded is None and replayed is not None
        assert "diverge" in result.describe()

    def test_summarize_counts_match_the_events(self):
        trace = record_trial(self.SPEC)
        summary = summarize_trace(trace)
        assert summary["schema"] == SCHEMA_VERSION
        assert summary["events"] == len(trace.events)
        assert summary["spec"]["seed"] == 42
        assert sum(
            count for kinds in summary["stages"].values()
            for count in kinds.values()
        ) == len(trace.events)
        assert summary["duration"] == max(e.time for e in trace.events)
        assert "AD" in summary["nodes"]


class TestRejectionReasons:
    """Every algorithm must explain a rejection without mutating state."""

    ALGORITHMS = ("AD-1", "AD-2", "AD-3", "AD-4")

    def _first_rejection(self, algorithm_name):
        from repro.core.condition import c1

        condition = c1()
        algorithm = make_ad(algorithm_name, condition)
        update = Update("x", 1, 250.0)
        alert = make_alert(condition.name, {"x": [update]}, source="CE1")
        duplicate = make_alert(condition.name, {"x": [update]}, source="CE2")
        assert algorithm.offer(alert)
        accepted = algorithm.offer(duplicate)
        return algorithm, duplicate, accepted

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_duplicate_rejection_has_a_reason(self, name):
        algorithm, duplicate, accepted = self._first_rejection(name)
        if accepted:  # algorithm legitimately displays duplicates
            pytest.skip(f"{name} accepts duplicates from another CE")
        before = algorithm.output
        reason = algorithm.rejection_reason(duplicate.identity())
        assert reason and isinstance(reason, str)
        # Explaining must not mutate the algorithm.
        assert algorithm.output == before
        assert algorithm.rejection_reason(duplicate.identity()) == reason

    def test_default_reason_mentions_the_algorithm(self):
        from repro.displayers.base import ADAlgorithm

        class Opaque(ADAlgorithm):
            name = "opaque"

            def _accept(self, key):
                return False

        algorithm = Opaque()
        alert = make_alert("c1", {"x": [Update("x", 1, 1.0)]}, source="CE1")
        assert not algorithm.offer(alert)
        assert "opaque" in algorithm.rejection_reason(alert.identity())


class TestReasonStringsPerAlgorithm:
    """The exact reason class each algorithm reports per rejection cause.

    These strings are load-bearing: the fuzzer's coverage signatures and
    the adaptive displayer's policy counters both classify on them, so a
    rewording is a behaviour change, not a cosmetic one.
    """

    def test_base_default_distinguishes_duplicate_from_predicate(self):
        from repro.displayers.base import ADAlgorithm

        class FirstOnly(ADAlgorithm):
            name = "first-only"

            def _accept(self, key):
                return not self._output

        algorithm = FirstOnly()
        shown = alert_deg1(1)
        assert algorithm.offer(shown)
        # Re-arrival of a displayed identity → the duplicate reason.
        rearrival = alert_deg1(1)
        assert not algorithm.offer(rearrival)
        assert algorithm.rejection_reason(rearrival.identity()).startswith(
            "duplicate: history set of"
        )
        # A novel alert the predicate refuses → the predicate reason.
        novel = alert_deg1(2)
        assert not algorithm.offer(novel)
        reason = algorithm.rejection_reason(novel.identity())
        assert reason.startswith("predicate rejection: first-only")

    def test_ad1_reports_duplicates(self):
        ad = AD1()
        assert ad.offer(alert_deg1(1))
        duplicate = alert_deg1(1)
        assert not ad.offer(duplicate)
        assert ad.rejection_reason(duplicate.identity()).startswith(
            "duplicate: history set of"
        )

    def test_ad2_reports_seqno_regression(self):
        ad = AD2("x")
        assert ad.offer(alert_deg1(2))
        stale = alert_deg1(1)
        assert not ad.offer(stale)
        reason = ad.rejection_reason(stale.identity())
        assert reason.startswith("seqno regression")
        assert "a.seqno.x=1" in reason and "last displayed 2" in reason

    def test_ad3_reports_duplicate_and_conflict(self):
        ad = AD3("x")
        assert ad.offer(alert_deg2(2, 1))
        duplicate = alert_deg2(2, 1)
        assert not ad.offer(duplicate)
        assert ad.rejection_reason(duplicate.identity()).startswith("duplicate")
        # ⟨3,1⟩ claims update 2 missed; the displayed ⟨2,1⟩ received it.
        skipper = alert_deg2(3, 1)
        assert not ad.offer(skipper)
        assert "history conflict in x" in ad.rejection_reason(skipper.identity())

    def test_ad4_delegates_to_the_deciding_constituent(self):
        ad = AD4("x")
        assert ad.offer(alert_deg2(2, 1))
        stale = alert_deg2(1, 0)
        assert not ad.offer(stale)
        assert "seqno regression" in ad.rejection_reason(stale.identity())
        skipper = alert_deg2(3, 1)
        assert not ad.offer(skipper)
        assert "history conflict" in ad.rejection_reason(skipper.identity())

    def test_ad5_reports_inversion_and_all_equal_duplicate(self):
        ad = AD5(("x", "y"))
        assert ad.offer(alert_xy(2, 2))
        inverted = alert_xy(1, 3)
        assert not ad.offer(inverted)
        reason = ad.rejection_reason(inverted.identity())
        assert reason.startswith("seqno inversion in x")
        assert "a.seqno.x=1" in reason
        equal = alert_xy(2, 2)
        assert not ad.offer(equal)
        assert ad.rejection_reason(equal.identity()).startswith(
            "duplicate: seqnos equal last displayed"
        )

    def test_ad6_delegates_and_reports_per_variable_conflicts(self):
        def xy_hist(x_seqnos, y_seqnos):
            return make_alert(
                "cm",
                {
                    "x": [Update("x", s, 0.0) for s in x_seqnos],
                    "y": [Update("y", s, 0.0) for s in y_seqnos],
                },
            )

        ad = AD6(("x", "y"))
        assert ad.offer(xy_hist([2, 1], [1]))
        inverted = xy_hist([1], [1])
        assert not ad.offer(inverted)
        assert "seqno inversion in x" in ad.rejection_reason(inverted.identity())
        # ⟨3,1⟩ in x claims update 2 missed after ⟨2,1⟩ received it.
        skipper = xy_hist([3, 1], [1])
        assert not ad.offer(skipper)
        assert "history conflict in x" in ad.rejection_reason(skipper.identity())

    def test_ad6_off_contract_fallback_names_the_acceptance(self):
        ad = AD6(("x", "y"))
        acceptable = alert_xy(1, 1)
        reason = ad.rejection_reason(acceptable.identity())
        assert reason.startswith("no rejection: AD-6 would accept")


class TestTraceCli:
    def test_record_replay_summarize(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main([
            "trace", "record", "aggressive", "--algorithm", "AD-2",
            "--seed", "11", "--updates", "10", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert "recorded" in capsys.readouterr().out

        assert main(["trace", "replay", str(out)]) == 0
        assert "replay OK" in capsys.readouterr().out

        assert main(["trace", "summarize", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "seed=11" in captured
        assert "metrics:" in captured

    def test_replay_exit_code_on_divergence(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(["trace", "record", "lossless", "--seed", "3",
              "--updates", "6", "--out", str(out)])
        capsys.readouterr()
        # Corrupt one event line: replay must fail with exit code 1.
        lines = out.read_text().splitlines()
        event = json.loads(lines[1])
        event["node"] = "bogus"
        lines[1] = json.dumps(event, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        assert main(["trace", "replay", str(out)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "record", "lossless", "--seed", "5",
                     "--updates", "6"]) == 0
        expected = tmp_path / "trace_single_lossless_AD-1_seed5.jsonl"
        assert expected.exists()
        assert load_trace(expected).spec["seed"] == 5

    def test_scenario_counters_flag(self, capsys):
        assert main(["scenario", "aggressive", "--seed", "2",
                     "--updates", "8", "--counters"]) == 0
        captured = capsys.readouterr().out
        assert "observability counters:" in captured
        assert "link" in captured
