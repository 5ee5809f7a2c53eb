"""Structured observability: kernel event tracing, counters, and replay.

The paper's properties are timing-dependent — which interleaving of
A1/A2 the AD saw decides orderedness/completeness/consistency — so the
*observed event stream itself* is a first-class artifact here.  This
package provides:

* a :class:`~repro.observability.tracer.Tracer` protocol that every
  instrumented layer (kernel, links, CEs, AD) emits into when a tracer
  is attached to the run's kernel — and costs one ``is None`` check per
  instrumentation point when none is;
* :class:`~repro.observability.tracer.CountersTracer` for per-stage,
  per-node counters cheap enough to aggregate across trial batches;
* JSONL trace recording and deterministic replay
  (:mod:`repro.observability.replay`): any interesting run — a property
  violation, a perf regression, a flaky property test — can be captured
  with ``repro trace record`` and re-executed bit-identically with
  ``repro trace replay``, and drawn as a lane timeline
  (:func:`~repro.observability.replay.render_timeline`, what ``repro
  scenario --timeline`` prints).
"""

from repro.observability.events import (
    SCHEMA_VERSION,
    STAGE_AD,
    STAGE_CE,
    STAGE_KERNEL,
    STAGE_LINK,
    TraceEvent,
    event_from_json_obj,
)
from repro.observability.replay import (
    RecordedTrace,
    ReplayResult,
    TraceSchemaError,
    load_trace,
    record_trial,
    render_timeline,
    replay_trace,
    summarize_trace,
)
from repro.observability.tracer import (
    CountersTracer,
    MemoryTracer,
    NullTracer,
    ReasonCountersTracer,
    Tracer,
)

__all__ = [
    "SCHEMA_VERSION",
    "STAGE_KERNEL",
    "STAGE_LINK",
    "STAGE_CE",
    "STAGE_AD",
    "TraceEvent",
    "event_from_json_obj",
    "Tracer",
    "NullTracer",
    "MemoryTracer",
    "CountersTracer",
    "ReasonCountersTracer",
    "RecordedTrace",
    "ReplayResult",
    "TraceSchemaError",
    "record_trial",
    "load_trace",
    "replay_trace",
    "summarize_trace",
    "render_timeline",
]
