"""Recorded update feeds — the input artifact every runtime replays.

A feed is what actually *happened* on the front of one monitored run:
the per-CE update delivery streams (post loss, post reordering, post
crash — exactly ``U_i``) plus, per CE, the back-link arrival stamps
``(arrival_time, global_index)`` of each alert that CE will raise.  The
stamps are the scheduler's contribution to a run's semantics: merged
into a total order they reproduce the kernel's AD arrival interleaving,
so a runtime that evaluates the deliveries and merges by stamp must
display byte-for-byte the same alert sequence as the simulator.

Feeds are recorded from a :class:`~repro.engine.spec.TrialSpec` (which
fully determines them), persist as JSONL (``repro.feed/1``), and stream
over sockets as length-prefixed :mod:`repro.core.wire` frames carrying
protocol messages::

    {"type": "hello", "schema": "repro.feed/1", "spec": ..., "stamps": ...}
    {"type": "delivery", "ce": 0, "update": {"var": "x", "seqno": 1, ...}}
    ...
    {"type": "end"}

Control messages (hello, end, result, error) travel as canonical JSON.  A
``delivery`` — all but two frames of a feed — travels as a fixed binary
record instead, the one encoding of it the wire accepts::

    offset  size  field
    0       1     tag 0x01 (a JSON payload starts with ``{``)
    1       2     CE index, big-endian unsigned
    3       8     seqno, big-endian unsigned
    11      8     value, big-endian IEEE-754 double
    19      >=1   varname, UTF-8, to the end of the frame

:func:`encode_message` / :func:`decode_message` map both forms to and from
the message dicts above; the server's reader skips the dict and takes
:func:`decode_delivery` straight to an :class:`Update`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from operator import le
from pathlib import Path
from typing import Any, Iterator

from repro.core.serialization import update_from_json, update_to_json
from repro.core.update import Update
from repro.core.wire import encode_frame

__all__ = [
    "FEED_SCHEMA",
    "FeedSchemaError",
    "UpdateFeed",
    "feed_from_run",
    "record_feed",
    "load_feed",
    "loads_feed",
    "feed_messages",
    "encode_message",
    "decode_message",
    "decode_delivery",
    "decode_hello",
]

FEED_SCHEMA = "repro.feed/1"

_new = object.__new__
_oset = object.__setattr__


class FeedSchemaError(ValueError):
    """Raised when a feed file/stream does not match the supported schema."""


_DELIVERY_TAG = b"\x01"
#: The fixed fields behind the tag: CE index, seqno, value.
_DELIVERY_FIELDS = struct.Struct(">HQd")
_VARNAME_AT = 1 + _DELIVERY_FIELDS.size


def encode_message(message: dict[str, Any]) -> bytes:
    """One protocol message as a length-prefixed frame: a binary record
    for a ``delivery``, canonical JSON for everything else."""
    if message.get("type") != "delivery":
        return encode_frame(
            json.dumps(message, sort_keys=True, separators=(",", ":")).encode()
        )
    try:
        update = message["update"]
        varname = update["var"].encode()
        fields = _DELIVERY_FIELDS.pack(
            message["ce"], update["seqno"], update["value"]
        )
    except (
        struct.error, OverflowError, KeyError, TypeError, AttributeError,
        UnicodeEncodeError,
    ) as exc:
        raise FeedSchemaError(
            f"delivery does not fit the wire record ({exc}): {message!r}"
        ) from exc
    if not varname:
        raise FeedSchemaError(f"delivery without a varname: {message!r}")
    return encode_frame(_DELIVERY_TAG + fields + varname)


def decode_delivery(payload: bytes) -> tuple[int, Update] | None:
    """``(ce_index, update)`` of a delivery record; ``None`` when the
    payload does not carry the delivery tag (it is a JSON message)."""
    if payload[:1] != _DELIVERY_TAG:
        return None
    try:
        ce_index, seqno, value = _DELIVERY_FIELDS.unpack_from(payload, 1)
        varname = payload[_VARNAME_AT:].decode()
    except (struct.error, UnicodeDecodeError) as exc:
        raise FeedSchemaError(
            f"malformed delivery record ({exc}): {payload[:80]!r}"
        ) from exc
    if not varname:
        raise FeedSchemaError(f"delivery record without a varname: {payload!r}")
    # Fast frozen-dataclass construction: the inputs are valid by
    # construction (non-empty varname, unsigned seqno), so skip
    # __init__'s indirection and __post_init__ validation.
    update = _new(Update)
    _oset(update, "varname", varname)
    _oset(update, "seqno", seqno)
    _oset(update, "value", value)
    return ce_index, update


def decode_message(payload: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_message` (for one decoded frame payload)."""
    delivery = decode_delivery(payload)
    if delivery is not None:
        ce_index, update = delivery
        return {
            "type": "delivery",
            "ce": ce_index,
            "update": update_to_json(update),
        }
    try:
        message = json.loads(payload.decode())
    except ValueError as exc:  # not UTF-8, not JSON, or an unknown record tag
        raise FeedSchemaError(
            f"malformed service message: {payload[:80]!r}"
        ) from exc
    if not isinstance(message, dict) or "type" not in message:
        raise FeedSchemaError(f"malformed service message: {payload[:80]!r}")
    if message["type"] == "delivery":
        raise FeedSchemaError(
            "a delivery travels as a binary record, not as JSON: "
            f"{payload[:80]!r}"
        )
    return message


def decode_hello(hello: dict[str, Any]):
    """``(TrialSpec, stamps)`` of a decoded ``hello`` message.

    Everything in a hello comes from the peer, so whatever is wrong with
    it is a :class:`FeedSchemaError` naming the field at fault — never
    the ``KeyError`` / ``TypeError`` of the code that first tripped on it.
    """
    from repro.displayers.registry import algorithm_names
    from repro.engine.spec import SCENARIO_MATRICES, TrialSpec, check_spec_fields

    if hello["type"] != "hello":
        raise FeedSchemaError(f"expected hello, got {hello['type']!r}")
    if hello.get("schema") != FEED_SCHEMA:
        raise FeedSchemaError(
            f"unsupported feed schema {hello.get('schema')!r}"
        )
    for name in ("spec", "stamps"):
        if name not in hello:
            raise FeedSchemaError(f"hello has no {name!r} field")
    spec = hello["spec"]
    check_spec_fields(spec, FeedSchemaError, "hello spec")

    def named(name: str, known) -> str:
        value = spec[name]
        if not isinstance(value, str) or value not in known:
            raise FeedSchemaError(
                f"hello spec field {name!r} is {value!r}; known: {sorted(known)}"
            )
        return value

    named("row", SCENARIO_MATRICES[named("matrix", SCENARIO_MATRICES)])
    named("algorithm", algorithm_names())
    try:
        trial = TrialSpec(**spec)
    except (TypeError, ValueError) as exc:  # a nested faults/membership dict
        raise FeedSchemaError(f"hello field 'spec' is malformed ({exc})") from exc
    try:
        stamps = tuple(
            tuple((float(time), int(seq)) for time, seq in per_ce)
            for per_ce in hello["stamps"]
        )
    except (TypeError, ValueError) as exc:
        raise FeedSchemaError(
            "hello field 'stamps' is not a list, per CE, of [time, index] "
            f"pairs ({exc})"
        ) from exc
    # Back links are FIFO, so a CE's stamps are in arrival order; the
    # merge releases each CE's alerts in that order.
    for ce_index, per_ce in enumerate(stamps):
        if not all(map(le, per_ce, per_ce[1:])):
            raise FeedSchemaError(
                f"hello field 'stamps' of CE{ce_index + 1} is not in "
                "(time, index) order"
            )
    return trial, stamps


@dataclass(frozen=True)
class UpdateFeed:
    """One recorded run's deliveries and arrival stamps."""

    #: The canonical :class:`~repro.engine.spec.TrialSpec` dict that
    #: produced (and deterministically reproduces) this feed.
    spec: dict[str, Any]
    #: ``(ce_index, update)`` in dispatch order; the subsequence for one
    #: CE is exactly its ``U_i`` in delivery order.
    deliveries: tuple[tuple[int, Update], ...]
    #: Per CE, one ``(arrival_time, global_index)`` stamp per alert the
    #: CE raises, in raise order (back links are FIFO).
    stamps: tuple[tuple[tuple[float, int], ...], ...]

    @property
    def replication(self) -> int:
        return len(self.stamps)

    @property
    def total_alerts(self) -> int:
        return sum(len(per_ce) for per_ce in self.stamps)

    def per_ce(self) -> tuple[tuple[Update, ...], ...]:
        """The deliveries regrouped into per-CE streams (each CE's U_i)."""
        streams: list[list[Update]] = [[] for _ in range(self.replication)]
        for ce_index, update in self.deliveries:
            streams[ce_index].append(update)
        return tuple(tuple(stream) for stream in streams)

    def make_spec(self, **overrides: Any):
        """The feed's TrialSpec, optionally with fields overridden."""
        from repro.engine.spec import TrialSpec

        return TrialSpec(**{**self.spec, **overrides})

    def condition(self):
        """The monitored condition, re-resolved from the spec."""
        return self.make_spec().resolve_scenario().make_condition()

    # -- persistence ---------------------------------------------------------
    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {"schema": FEED_SCHEMA, "record": "header", "spec": self.spec},
                sort_keys=True, separators=(",", ":"),
            )
        ]
        for ce_index, per_ce in enumerate(self.stamps):
            lines.append(json.dumps(
                {
                    "record": "stamps",
                    "ce": ce_index,
                    "stamps": [[time, seq] for time, seq in per_ce],
                },
                sort_keys=True, separators=(",", ":"),
            ))
        for ce_index, update in self.deliveries:
            lines.append(json.dumps(
                {
                    "record": "delivery",
                    "ce": ce_index,
                    "update": update_to_json(update),
                },
                sort_keys=True, separators=(",", ":"),
            ))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path


def feed_from_run(spec: dict[str, Any], run) -> UpdateFeed:
    """Project a completed :class:`RunResult` onto its update feed.

    Dispatch order interleaves the per-CE delivery streams round-robin —
    the cross-CE interleaving is semantically irrelevant (CEs share no
    state until the AD), but a deterministic choice keeps recorded feeds
    reproducible byte for byte.
    """
    stamps = run.arrival_stamps()
    for ce_index, per_ce in enumerate(stamps):
        if len(per_ce) != len(run.ce_alerts[ce_index]):
            raise ValueError(
                f"CE{ce_index + 1} raised {len(run.ce_alerts[ce_index])} "
                f"alerts but {len(per_ce)} reached the AD — a feed needs "
                "every alert delivered (run the workload to quiescence)"
            )
    deliveries: list[tuple[int, Update]] = []
    streams = run.received
    for position in range(max((len(s) for s in streams), default=0)):
        for ce_index, stream in enumerate(streams):
            if position < len(stream):
                deliveries.append((ce_index, stream[position]))
    return UpdateFeed(spec=spec, deliveries=tuple(deliveries), stamps=stamps)


def record_feed(spec) -> UpdateFeed:
    """Execute a :class:`~repro.engine.spec.TrialSpec`; record its feed."""
    from dataclasses import asdict

    canonical = json.loads(json.dumps(asdict(spec), sort_keys=True))
    return feed_from_run(canonical, spec.run())


def loads_feed(text: str) -> UpdateFeed:
    """Parse the JSONL form, validating the schema version."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FeedSchemaError("empty feed")
    header = json.loads(lines[0])
    if header.get("record") != "header":
        raise FeedSchemaError("first line is not a feed header")
    if header.get("schema") != FEED_SCHEMA:
        raise FeedSchemaError(
            f"unsupported feed schema {header.get('schema')!r} "
            f"(supported: {FEED_SCHEMA!r})"
        )
    from repro.engine.spec import check_spec_fields

    check_spec_fields(header.get("spec"), FeedSchemaError, "feed header spec")
    stamps: dict[int, tuple[tuple[float, int], ...]] = {}
    deliveries: list[tuple[int, Update]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = json.loads(line)
        record = obj.get("record")
        if record == "stamps":
            stamps[int(obj["ce"])] = tuple(
                (float(time), int(seq)) for time, seq in obj["stamps"]
            )
        elif record == "delivery":
            deliveries.append((int(obj["ce"]), update_from_json(obj["update"])))
        else:
            raise FeedSchemaError(f"line {lineno}: unknown record {record!r}")
    if sorted(stamps) != list(range(len(stamps))):
        raise FeedSchemaError(f"stamp records cover CEs {sorted(stamps)}")
    return UpdateFeed(
        spec=header["spec"],
        deliveries=tuple(deliveries),
        stamps=tuple(stamps[i] for i in range(len(stamps))),
    )


def load_feed(path: str | Path) -> UpdateFeed:
    return loads_feed(Path(path).read_text())


def feed_messages(feed: UpdateFeed) -> Iterator[dict[str, Any]]:
    """The protocol messages a client streams to serve this feed."""
    yield {
        "type": "hello",
        "schema": FEED_SCHEMA,
        "spec": feed.spec,
        "stamps": [
            [[time, seq] for time, seq in per_ce] for per_ce in feed.stamps
        ],
    }
    for ce_index, update in feed.deliveries:
        yield {
            "type": "delivery",
            "ce": ce_index,
            "update": update_to_json(update),
        }
    yield {"type": "end"}
