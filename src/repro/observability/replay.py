"""Deterministic trace recording and replay.

A recorded trace is the full proof of one run: a header naming the
``(scenario, algorithm, seed, knobs)`` that produced it, the structured
event stream the instrumented components emitted, and the run's final
:class:`~repro.analysis.metrics.RunMetrics` as a footer.  Because every
run is fully determined by its :class:`~repro.engine.spec.TrialSpec`,
replaying means *re-executing* the spec under a fresh recorder and
asserting the two event streams are bit-identical (canonical JSONL line
by line) — the strongest statement of the kernel's determinism contract,
and the property the Hypothesis suite exercises on random specs.

File format (``.jsonl``)::

    {"schema": "repro.trace/1", "record": "header", "spec": {...}}
    {"record": "event", "t": ..., "stage": ..., "kind": ..., "node": ...}
    ...
    {"record": "metrics", "metrics": {...}}
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.observability.events import (
    SCHEMA_VERSION,
    STAGE_AD,
    STAGE_CE,
    STAGE_LINK,
    TraceEvent,
    event_from_json_obj,
)
from repro.observability.tracer import MemoryTracer

__all__ = [
    "TraceSchemaError",
    "RecordedTrace",
    "ReplayResult",
    "record_trial",
    "load_trace",
    "replay_trace",
    "summarize_trace",
    "render_timeline",
]


class TraceSchemaError(ValueError):
    """Raised when a trace file does not match the supported schema."""


def _canonical(obj: Any) -> Any:
    """Normalise tuples/dataclasses to the JSON value space, so in-memory
    and reloaded traces compare equal."""
    return json.loads(json.dumps(obj, sort_keys=True))


@dataclass(frozen=True)
class RecordedTrace:
    """Header + event stream + metrics footer of one recorded run."""

    spec: dict[str, Any]
    events: tuple[TraceEvent, ...]
    metrics: dict[str, Any]
    schema: str = SCHEMA_VERSION

    def event_lines(self) -> list[str]:
        """The canonical JSONL event lines (the bit-identity carrier)."""
        return [event.json_line() for event in self.events]

    def to_jsonl(self) -> str:
        header = {
            "schema": self.schema,
            "record": "header",
            "spec": self.spec,
        }
        footer = {"record": "metrics", "metrics": self.metrics}
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        for event in self.events:
            obj = {"record": "event", **event.to_json_obj()}
            lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        lines.append(json.dumps(footer, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path


def record_trial(spec) -> RecordedTrace:
    """Execute ``spec`` under a fresh recorder and capture everything.

    ``spec`` is a :class:`~repro.engine.spec.TrialSpec`; the import is
    deferred so that lightweight consumers of this module do not pull in
    the scenario matrices.
    """
    from repro.analysis.metrics import collect_metrics

    recorder = MemoryTracer()
    run = spec.run(recorder)
    return RecordedTrace(
        spec=_canonical(asdict(spec)),
        events=tuple(recorder.events),
        metrics=_canonical(asdict(collect_metrics(run))),
    )


def load_trace(path: str | Path) -> RecordedTrace:
    """Parse a ``.jsonl`` trace file, validating its schema version."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise TraceSchemaError(f"empty trace file: {path}")
    header = json.loads(lines[0])
    if header.get("record") != "header":
        raise TraceSchemaError(f"first line of {path} is not a trace header")
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema {schema!r} (supported: {SCHEMA_VERSION!r})"
        )
    from repro.engine.spec import check_spec_fields

    check_spec_fields(header.get("spec"), TraceSchemaError, f"{path}: trace spec")
    events: list[TraceEvent] = []
    metrics: dict[str, Any] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        obj = json.loads(line)
        record = obj.get("record")
        if record == "event":
            events.append(event_from_json_obj(obj))
        elif record == "metrics":
            metrics = obj.get("metrics", {})
        else:
            raise TraceSchemaError(
                f"{path}:{lineno}: unknown record type {record!r}"
            )
    return RecordedTrace(
        spec=header["spec"], events=tuple(events), metrics=metrics,
        schema=schema,
    )


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a recorded trace against a live re-execution."""

    events_identical: bool
    metrics_identical: bool
    recorded_events: int
    replayed_events: int
    #: First (index, recorded line, replayed line) mismatch; lines are
    #: None past the end of the shorter stream.
    first_divergence: tuple[int, str | None, str | None] | None = None
    replayed: RecordedTrace | None = field(default=None, compare=False)

    @property
    def identical(self) -> bool:
        return self.events_identical and self.metrics_identical

    def __bool__(self) -> bool:
        return self.identical

    def describe(self) -> str:
        if self.identical:
            return (
                f"replay OK: {self.replayed_events} events bit-identical, "
                "metrics identical"
            )
        parts = []
        if not self.events_identical:
            index, recorded, replayed = self.first_divergence
            parts.append(
                f"event streams diverge at index {index}: "
                f"recorded={recorded!r} replayed={replayed!r} "
                f"({self.recorded_events} recorded vs "
                f"{self.replayed_events} replayed events)"
            )
        if not self.metrics_identical:
            parts.append("run metrics differ")
        return "replay FAILED: " + "; ".join(parts)


def replay_trace(trace: RecordedTrace) -> ReplayResult:
    """Re-execute a recorded trace's spec and compare event streams."""
    from repro.engine.spec import TrialSpec

    replayed = record_trial(TrialSpec(**trace.spec))
    recorded_lines = trace.event_lines()
    replayed_lines = replayed.event_lines()
    divergence = None
    for index in range(max(len(recorded_lines), len(replayed_lines))):
        a = recorded_lines[index] if index < len(recorded_lines) else None
        b = replayed_lines[index] if index < len(replayed_lines) else None
        if a != b:
            divergence = (index, a, b)
            break
    return ReplayResult(
        events_identical=divergence is None,
        metrics_identical=_canonical(trace.metrics)
        == _canonical(replayed.metrics),
        recorded_events=len(recorded_lines),
        replayed_events=len(replayed_lines),
        first_divergence=divergence,
        replayed=replayed,
    )


def summarize_trace(trace: RecordedTrace) -> dict[str, Any]:
    """Aggregate a trace for human consumption (the CLI's ``summarize``)."""
    per_stage: dict[str, dict[str, int]] = {}
    nodes: set[str] = set()
    for event in trace.events:
        per_stage.setdefault(event.stage, {})
        per_stage[event.stage][event.kind] = (
            per_stage[event.stage].get(event.kind, 0) + 1
        )
        if event.node:
            nodes.add(event.node)
    return {
        "schema": trace.schema,
        "spec": dict(trace.spec),
        "events": len(trace.events),
        "duration": max((event.time for event in trace.events), default=0.0),
        "stages": {
            stage: dict(sorted(kinds.items()))
            for stage, kinds in sorted(per_stage.items())
        },
        "nodes": sorted(nodes),
        "metrics": dict(trace.metrics),
    }


def render_timeline(
    events: Iterable[TraceEvent], max_rows: int | None = None
) -> str:
    """The lane diagram the paper draws by hand, from an event stream.

    One line per DM broadcast, CE reception, raised alert and AD
    verdict, at its simulated time::

        t=    40.83  CE2      alert     a(5x,4x)
        t=    49.05  AD       display   a(5x,4x) (from CE2)
        t=    49.28  AD       filter    a(5x,4x) (from CE1)

    AD events do not name the sending CE; the back-link delivery that
    immediately precedes each arrival does.
    """
    lines: list[str] = []
    broadcasts: set[tuple[str, str]] = set()
    sender = ""

    def row(time: float, lane: str, kind: str, detail: str) -> None:
        lines.append(f"t={time:>9.2f}  {lane:<8} {kind:<9} {detail}")

    for event in events:
        data = event.data
        if event.stage == STAGE_LINK:
            source, _, target = event.node.partition("->")
            if target == "AD":
                sender = source
            elif event.kind == "send" and (source, data["msg"]) not in broadcasts:
                broadcasts.add((source, data["msg"]))
                row(event.time, source, "broadcast", data["msg"])
        elif event.stage == STAGE_CE and event.kind == "update-received":
            row(event.time, event.node, "receive", data["msg"])
        elif event.stage == STAGE_CE and event.kind == "alert-raised":
            row(event.time, event.node, "alert", data["alert"])
        elif event.stage == STAGE_AD and event.kind in ("display", "filter"):
            row(event.time, event.node, event.kind, f"{data['alert']} (from {sender})")
    if max_rows is not None and len(lines) > max_rows:
        lines = lines[:max_rows] + [f"... ({len(lines) - max_rows} more rows)"]
    return "\n".join(lines)
