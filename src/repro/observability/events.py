"""Trace events — the unit of structured observability.

Every instrumented component (kernel, links, CEs, the AD) describes what
it did as a :class:`TraceEvent`: a simulated timestamp, a *stage* naming
the layer that emitted it, a *kind* naming the action, the emitting
*node*, and a small payload of JSON-serialisable details.  The event
stream of a run is itself the first-class artifact: identical
``(seed, config)`` pairs must produce identical event streams, which is
what the replay machinery (:mod:`repro.observability.replay`) asserts.

The JSONL schema is versioned via :data:`SCHEMA_VERSION`; bump it
whenever the serialised shape of events (or the recorder's header/footer
lines) changes incompatibly, so old trace files fail loudly instead of
replaying against the wrong decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "STAGE_KERNEL",
    "STAGE_LINK",
    "STAGE_CE",
    "STAGE_AD",
    "STAGE_FAULT",
    "STAGE_MEMBERSHIP",
    "TraceEvent",
    "event_from_json_obj",
]

#: Version tag written into every trace header.  ``repro.trace/1`` covers:
#: kernel schedule/fire/cancel/compact, link send/drop/deliver/hold,
#: ce update-received/missed/alert-raised, ad arrive/display/filter,
#: the time-0.0 ``fault`` surface preamble, and the ``membership``
#: lifecycle (config/heartbeat/suspect/detection/recovery-plan preamble
#: plus runtime rejoin/buffered/stale-drop/catchup-ingest/
#: replay-buffered/catchup-complete/below-quorum) — all additive, so
#: the version tag is unchanged.
SCHEMA_VERSION = "repro.trace/1"

STAGE_KERNEL = "kernel"
STAGE_LINK = "link"
STAGE_CE = "ce"
STAGE_AD = "ad"
STAGE_FAULT = "fault"
STAGE_MEMBERSHIP = "membership"


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation of a run.

    ``data`` holds stage-specific details (message shorthands, drop
    reasons, queue sizes).  Values must be JSON-serialisable scalars so
    the event round-trips through the JSONL recorder unchanged.
    """

    time: float
    stage: str
    kind: str
    node: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "t": self.time,
            "stage": self.stage,
            "kind": self.kind,
            "node": self.node,
        }
        if self.data:
            obj["data"] = dict(self.data)
        return obj

    def json_line(self) -> str:
        """Canonical single-line rendering (sorted keys, no whitespace).

        Two events are bit-identical iff their ``json_line`` strings are
        equal — this is the equality the replay checker enforces.
        """
        return json.dumps(
            self.to_json_obj(), sort_keys=True, separators=(",", ":")
        )


def event_from_json_obj(obj: Mapping[str, Any]) -> TraceEvent:
    """Decode one event line previously produced by :meth:`json_line`."""
    return TraceEvent(
        time=obj["t"],
        stage=obj["stage"],
        kind=obj["kind"],
        node=obj["node"],
        data=dict(obj.get("data", {})),
    )
