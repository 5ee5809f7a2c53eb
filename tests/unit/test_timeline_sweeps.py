"""Unit tests for timeline rendering and parameter sweeps."""

from dataclasses import replace

from repro.analysis.sweeps import LOSS_SWEEP, REPLICATION_SWEEP
from repro.components.system import SystemConfig, run_system
from repro.core.condition import c1
from repro.engine.spec import TrialSpec
from repro.observability import (
    MemoryTracer,
    load_trace,
    record_trial,
    render_timeline,
)
from repro.workloads.scenarios import SINGLE_VARIABLE_SCENARIOS

WORKLOAD = {"x": [(t * 10.0, 3100.0 if t % 2 else 2900.0) for t in range(6)]}


def traced(front_loss: float, seed: int):
    """A c1 run over WORKLOAD and the event stream it emitted."""
    tracer = MemoryTracer()
    run = run_system(
        c1(), WORKLOAD, SystemConfig(front_loss=front_loss), seed=seed,
        tracer=tracer,
    )
    return run, tracer.events


def rows(text: str, kind: str) -> list[str]:
    return [line for line in text.splitlines() if line.split()[3] == kind]


class TestLogicalTimeline:
    def test_contains_all_lanes(self):
        _, events = traced(0.0, 1)
        lanes = {line.split()[2] for line in render_timeline(events).splitlines()}
        assert {"DM-x", "CE1", "CE2", "AD"} <= lanes

    def test_broadcast_times_rendered(self):
        _, events = traced(0.0, 1)
        text = render_timeline(events)
        assert text.splitlines()[0].split() == [
            "t=", "0.00", "DM-x", "broadcast", "1x(2900)"
        ]
        assert "t=    10.00  DM-x     broadcast 2x(3100)" in text

    def test_alert_annotations(self):
        _, events = traced(0.0, 1)
        text = render_timeline(events)
        assert "alert     a(2x)" in text
        # An alert is raised at the arrival of its newest history entry.
        lines = text.splitlines()
        first_alert = next(i for i, line in enumerate(lines) if " alert " in line)
        assert " receive   2x(3100)" in lines[first_alert - 1]

    def test_display_vs_filter_verdicts(self):
        run, events = traced(0.0, 1)
        text = render_timeline(events)
        assert len(rows(text, "display")) == len(run.displayed)
        # The other replica's copies of each alert are filtered.
        assert len(rows(text, "filter")) == len(run.filtered) > 0

    def test_max_rows_truncation(self):
        _, events = traced(0.0, 1)
        text = render_timeline(events, max_rows=5)
        assert "more rows" in text
        assert len(text.splitlines()) == 6


class TestTimelineRecorder:
    def test_captures_timestamped_events(self):
        _, events = traced(0.0, 1)
        kinds = {line.split()[3] for line in render_timeline(events).splitlines()}
        assert {"broadcast", "receive", "alert", "display"} <= kinds

    def test_event_counts_match_run(self):
        result, events = traced(0.3, 9)
        text = render_timeline(events)
        assert len(rows(text, "broadcast")) == len(result.sent["x"])
        assert len(rows(text, "receive")) == sum(len(t) for t in result.received)
        assert len(rows(text, "alert")) == sum(len(a) for a in result.ce_alerts)
        assert len(rows(text, "display")) == len(result.displayed)
        assert len(rows(text, "filter")) == len(result.filtered)

    def test_times_monotone_in_render(self):
        _, events = traced(0.2, 3)
        times = [float(line.split()[1]) for line in render_timeline(events).splitlines()]
        assert times == sorted(times)

    def test_recorder_does_not_change_outcome(self):
        spec = TrialSpec("single", "aggressive", "AD-1", 9, 20)
        plain = spec.run()
        trace = record_trial(spec)
        displays = rows(render_timeline(trace.events), "display")
        assert [line.split()[4] for line in displays] == [
            alert.shorthand() for alert in plain.displayed
        ]

    def test_a_trace_file_draws_like_the_live_stream(self, tmp_path):
        trace = record_trial(TrialSpec("single", "aggressive", "AD-4", 3, 20))
        path = trace.write(tmp_path / "run.jsonl")
        assert render_timeline(load_trace(path).events) == render_timeline(
            trace.events
        )


class TestSweeps:
    def test_loss_sweep_monotone_signal(self):
        points = LOSS_SWEEP.run(
            algorithms=("AD-1",), losses=(0.0, 0.4), trials=15, n_updates=25
        )
        assert len(points) == 2
        zero, lossy = points
        assert zero["inconsistent_rate"] == 0.0  # lossless: Theorem 1
        assert lossy["inconsistent_rate"] > 0.0

    def test_loss_sweep_does_not_mutate_scenario(self):
        scenario = SINGLE_VARIABLE_SCENARIOS["aggressive"]
        original_loss = scenario.front_loss
        LOSS_SWEEP.run(algorithms=("AD-1",), losses=(0.5,), trials=2,
                       n_updates=10)
        assert scenario.front_loss == original_loss

    def test_replication_sweep_guarantees_hold(self):
        # AD-4's guarantees must survive replication 3 (the paper: the
        # 2-CE analysis "can be easily extended").
        points = REPLICATION_SWEEP.run(
            algorithms=("AD-4",), replications=(2, 3), trials=15, n_updates=25
        )
        for point in points:
            assert point["unordered_rate"] == 0.0
            assert point["inconsistent_rate"] == 0.0
        assert REPLICATION_SWEEP.claim(points)

    def test_sweep_point_from_tally_handles_unchecked(self):
        point = LOSS_SWEEP.fold({"algorithm": "AD-1", "value": 1.0}, [], [])
        assert point["incomplete_rate"] is None
        assert point["inconsistent_rate"] is None
        assert "n/a" in LOSS_SWEEP.render([point])

    def test_render_ablation_table(self):
        points = LOSS_SWEEP.run(
            algorithms=("AD-1",), losses=(0.2,), row="non-historical",
            trials=5, n_updates=15,
        )
        text = LOSS_SWEEP.render(points)
        assert "param" in text
        assert "front_loss" in text
        assert "AD-1" in text
