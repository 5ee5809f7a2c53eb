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
fully determines them).  A feed has one encoding: the stream of
length-prefixed :mod:`repro.core.wire` frames a client sends to
``repro serve``, and a feed file (``repro feed record``) is exactly
those bytes.  The frames carry protocol messages::

    {"type": "hello", "schema": "repro.feed/1", "spec": ...}
    {"type": "stamps", "ce": 0, "stamps": ((time, index), ...)}   one per CE
    {"type": "delivery", "ce": 0, "update": {"var": "x", "seqno": 1, ...}}
    ...
    {"type": "end"}

and the server answers with one ``result`` (or ``error``) message.  The
control messages (hello, end, error) travel as canonical JSON.  The bulk
ones travel as binary records, whose first byte is a tag (a JSON payload
starts with ``{``, so the first byte decides); all integers big-endian::

    0x01 delivery   >H CE | >Q seqno | >d value | varname, UTF-8, to the end
    0x02 stamps     >H CE | n x (>d arrival time, >Q global index), n >= 0
    0x03 result     >I header length | header: canonical JSON of every
                    result field but ``displayed`` | the displayed lines,
                    UTF-8, joined by "\\n", to the end

:func:`encode_message` / :func:`decode_message` map every form to and
from the message dicts above and are exact inverses; the readers skip
the dict and take :func:`decode_delivery` straight to an
:class:`Update` and :func:`decode_stamps` straight to the ``(time,
index)`` tuples the merge takes.

One set of rules reads a feed from a socket or a file (:func:`loads_feed`):
:class:`FeedPreamble`, :func:`check_targets` and :func:`check_end`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from math import isfinite
from operator import itemgetter, le
from pathlib import Path
from typing import Any, Iterator

from repro.core.serialization import update_to_json
from repro.core.update import Update
from repro.core.wire import FrameDecoder, encode_frame

__all__ = [
    "FEED_SCHEMA",
    "FeedSchemaError",
    "FeedMismatchError",
    "UpdateFeed",
    "feed_from_run",
    "record_feed",
    "load_feed",
    "loads_feed",
    "feed_messages",
    "encode_message",
    "decode_message",
    "decode_delivery",
    "decode_stamps",
    "decode_hello",
    "FeedPreamble",
    "check_targets",
    "check_end",
]

FEED_SCHEMA = "repro.feed/1"

_new = object.__new__
_oset = object.__setattr__


class FeedSchemaError(ValueError):
    """Raised when a feed file/stream does not match the supported schema."""


class FeedMismatchError(ValueError):
    """A runtime's inputs disagree with the feed it was asked to replay."""


_DELIVERY_TAG = b"\x01"
_STAMPS_TAG = b"\x02"
_RESULT_TAG = b"\x03"
#: The fixed fields behind the delivery tag: CE index, seqno, value.
_DELIVERY_FIELDS = struct.Struct(">HQd")
_VARNAME_AT = 1 + _DELIVERY_FIELDS.size
_CE = struct.Struct(">H")
#: One stamp of a stamp record: arrival time, global index.
_STAMP = struct.Struct(">dQ")
_STAMPS_AT = 1 + _CE.size
_HEADER_LENGTH = struct.Struct(">I")
_LINES_AT = 1 + _HEADER_LENGTH.size


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def encode_message(message: dict[str, Any]) -> bytes:
    """One protocol message as a length-prefixed frame: a binary record
    for a ``delivery``, ``stamps`` or ``result``, canonical JSON for
    everything else.  What a record cannot carry is a
    :class:`FeedSchemaError` here, at the sender."""
    kind = message.get("type")
    if kind == "delivery":
        return _encode_delivery(message)
    if kind == "stamps":
        return _encode_stamps(message)
    if kind == "result":
        return _encode_result(message)
    return encode_frame(_canonical(message))


def _encode_delivery(message: dict[str, Any]) -> bytes:
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
    return encode_frame(_DELIVERY_TAG, fields, varname)


def _encode_stamps(message: dict[str, Any]) -> bytes:
    try:
        ce = _CE.pack(message["ce"])
        block = [_STAMP.pack(time, index) for time, index in message["stamps"]]
    except (struct.error, OverflowError, KeyError, TypeError, ValueError) as exc:
        raise FeedSchemaError(
            f"stamps do not fit the wire record ({exc}): {message!r:.200}"
        ) from exc
    return encode_frame(_STAMPS_TAG, ce, *block)


def _encode_result(message: dict[str, Any]) -> bytes:
    try:
        lines = message["displayed"]
        text = "\n".join(lines)
        body = text.encode()
        header = _canonical({
            name: value for name, value in message.items()
            if name not in ("type", "displayed")
        })
    except (KeyError, TypeError, ValueError) as exc:  # UnicodeEncodeError too
        raise FeedSchemaError(
            f"result does not fit the wire record ({exc})"
        ) from exc
    # "\n" separates the lines, so a line may neither be empty nor hold
    # one: the decoder could not give it back.
    if lines and (text.count("\n") != len(lines) - 1 or not all(lines)):
        raise FeedSchemaError("a displayed line is empty or holds a newline")
    return encode_frame(
        _RESULT_TAG, _HEADER_LENGTH.pack(len(header)), header, body
    )


def decode_delivery(payload: bytes) -> tuple[int, Update] | None:
    """``(ce_index, update)`` of a delivery record; ``None`` when the
    payload does not carry the delivery tag.

    A value that is not finite is a :class:`FeedSchemaError`: a NaN
    compares unequal to itself, so the run's merge would otherwise report
    the two CEs' copies of one update as a conflict.
    """
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
    if not isfinite(value):
        raise FeedSchemaError(
            f"the delivery record of {seqno}{varname} to CE{ce_index + 1} "
            f"holds a non-finite value {value!r}"
        )
    # Fast frozen-dataclass construction: the inputs are valid by
    # construction (non-empty varname, unsigned seqno), so skip
    # __init__'s indirection and __post_init__ validation.
    update = _new(Update)
    _oset(update, "varname", varname)
    _oset(update, "seqno", seqno)
    _oset(update, "value", value)
    return ce_index, update


def decode_stamps(
    payload: bytes,
) -> tuple[int, tuple[tuple[float, int], ...]] | None:
    """``(ce_index, stamps)`` of a stamp record; ``None`` when the payload
    does not carry the stamp tag.

    Everything in it comes from the peer, so a block that is not whole
    stamps, a time that is not finite and stamps out of ``(time,
    index)`` order are each a :class:`FeedSchemaError`.
    """
    if payload[:1] != _STAMPS_TAG:
        return None
    size = len(payload) - _STAMPS_AT
    if size < 0 or size % _STAMP.size:
        raise FeedSchemaError(
            f"a stamp record of {len(payload)} bytes is not {_STAMPS_AT} + "
            f"{_STAMP.size}n: {payload[:80]!r}"
        )
    (ce_index,) = _CE.unpack_from(payload, 1)
    stamps = tuple(_STAMP.iter_unpack(memoryview(payload)[_STAMPS_AT:]))
    # In (time, index) order the ends bound every time, so two finite
    # ends make every time finite; a NaN anywhere else fails the order
    # check, since it compares neither equal nor below anything.
    if stamps and not (isfinite(stamps[0][0]) and isfinite(stamps[-1][0])):
        raise FeedSchemaError(
            f"the stamp record of CE{ce_index + 1} holds a non-finite time"
        )
    # Back links are FIFO, so a CE's stamps are in arrival order; the
    # merge releases each CE's alerts in that order.
    if not all(map(le, stamps, stamps[1:])):
        raise FeedSchemaError(
            f"the stamp record of CE{ce_index + 1} is not in (time, index) "
            "order"
        )
    return ce_index, stamps


def _decode_result(payload: bytes) -> dict[str, Any]:
    try:
        (length,) = _HEADER_LENGTH.unpack_from(payload, 1)
    except struct.error as exc:
        raise FeedSchemaError(f"truncated result record: {payload!r}") from exc
    lines_at = _LINES_AT + length
    if len(payload) < lines_at:
        raise FeedSchemaError(
            f"a result record of {len(payload)} bytes declares a "
            f"{length}-byte header"
        )
    try:
        header = json.loads(payload[_LINES_AT:lines_at])
        text = payload[lines_at:].decode()
    except ValueError as exc:  # not UTF-8 or not JSON
        raise FeedSchemaError(f"malformed result record ({exc})") from exc
    if not isinstance(header, dict):
        raise FeedSchemaError(f"result header is not an object: {header!r:.80}")
    lines = text.split("\n") if text else []
    if not all(lines):
        raise FeedSchemaError("a result record holds an empty displayed line")
    return {**header, "type": "result", "displayed": lines}


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
    record = decode_stamps(payload)
    if record is not None:
        ce_index, stamps = record
        return {"type": "stamps", "ce": ce_index, "stamps": stamps}
    if payload[:1] == _RESULT_TAG:
        return _decode_result(payload)
    try:
        message = json.loads(payload.decode())
    except ValueError as exc:  # not UTF-8, not JSON, or an unknown record tag
        raise FeedSchemaError(
            f"malformed service message: {payload[:80]!r}"
        ) from exc
    if not isinstance(message, dict) or "type" not in message:
        raise FeedSchemaError(f"malformed service message: {payload[:80]!r}")
    if message["type"] in ("delivery", "stamps", "result"):
        raise FeedSchemaError(
            f"a {message['type']} travels as a binary record, not as JSON: "
            f"{payload[:80]!r}"
        )
    return message


def decode_hello(hello: dict[str, Any]):
    """The :class:`~repro.engine.spec.TrialSpec` of a decoded ``hello``.

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
    if "spec" not in hello:
        raise FeedSchemaError("hello has no 'spec' field")
    if "stamps" in hello:
        raise FeedSchemaError(
            "hello field 'stamps' is not accepted: the stamps follow the "
            "hello as one stamp record per CE"
        )
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
        return TrialSpec(**spec)
    except (TypeError, ValueError) as exc:  # a nested faults/membership dict
        raise FeedSchemaError(f"hello field 'spec' is malformed ({exc})") from exc


class FeedPreamble:
    """What precedes a feed's first delivery: the ``hello``, then one
    stamp record per CE in CE order, at least one; their number is the
    feed's replication."""

    def __init__(self) -> None:
        #: The decoded ``hello``, its TrialSpec and each CE's stamps.
        self.hello: dict[str, Any] | None = None
        self.spec = None
        self.stamps: list[tuple[tuple[float, int], ...]] = []

    def take(self, payloads: list[bytes]) -> list[bytes] | None:
        """Read the next (non-empty) run of payloads.  Once a payload that
        is not a stamp record ends the preamble, the payloads from it on;
        until then ``None``."""
        if self.hello is None:
            self.hello = decode_message(payloads[0])
            self.spec = decode_hello(self.hello)
            payloads = payloads[1:]
        stamps = self.stamps
        for position, payload in enumerate(payloads):
            record = decode_stamps(payload)
            if record is None:
                if not stamps:
                    raise FeedSchemaError("no stamp record follows the hello")
                return payloads[position:]
            ce_index, per_ce = record
            if ce_index != len(stamps):
                raise FeedSchemaError(
                    f"the stamp record of CE{ce_index + 1} arrived where "
                    f"CE{len(stamps) + 1}'s was due"
                )
            stamps.append(per_ce)
        return None


def check_targets(records, replication: int) -> None:
    """Every ``(ce_index, ...)`` delivery record targets one of the
    feed's ``replication`` CEs (else :class:`FeedMismatchError`)."""
    if max(map(itemgetter(0), records), default=-1) >= replication:
        ce_index = next(r[0] for r in records if r[0] >= replication)
        raise FeedMismatchError(
            f"delivery targets CE index {ce_index}; the feed declares "
            f"{replication} CEs"
        )


def check_end(
    payloads: list[bytes], position: int, decoder: FrameDecoder
) -> None:
    """What follows a feed's deliveries, ``payloads[position:]``, is its
    ``end`` and nothing else: no frame, no bytes of a partial one.  With
    nothing there the bytes stopped before the ``end``: a
    :class:`~repro.core.wire.FrameError` if mid-frame, else a
    :class:`FeedSchemaError`."""
    if position == len(payloads):
        decoder.close()
        raise FeedSchemaError("the stream ends before the feed's end message")
    message = decode_message(payloads[position])
    if message["type"] == "stamps":
        raise FeedSchemaError(
            f"a stamp record of CE{message['ce'] + 1} after the first "
            "delivery: every stamp record precedes the deliveries"
        )
    if message["type"] != "end":
        raise FeedSchemaError(f"unexpected message {message['type']!r} mid-feed")
    trailing = len(payloads) - position - 1
    if trailing or decoder.buffered:
        raise FeedSchemaError(
            f"{trailing} frames and {decoder.buffered} bytes of a partial "
            "frame follow the end message"
        )


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

    def write(self, path: str | Path) -> Path:
        """Write the feed file: the frames a client streams to serve it."""
        path = Path(path)
        path.write_bytes(b"".join(map(encode_message, feed_messages(self))))
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
        if len(per_ce) != len(run.ce_keys[ce_index]):
            raise ValueError(
                f"CE{ce_index + 1} raised {len(run.ce_keys[ce_index])} "
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


def loads_feed(data: bytes) -> UpdateFeed:
    """Read a feed file under the rules ``repro serve`` reads the same
    bytes by, failing with the error the server would reply with."""
    decoder = FrameDecoder()
    payloads = decoder.feed(data)
    preamble = FeedPreamble()
    rest = (preamble.take(payloads) if payloads else None) or []
    deliveries = []
    for payload in rest:
        delivery = decode_delivery(payload)
        if delivery is None:
            break
        deliveries.append(delivery)
    check_targets(deliveries, len(preamble.stamps))
    check_end(rest, len(deliveries), decoder)
    return UpdateFeed(
        preamble.hello["spec"], tuple(deliveries), tuple(preamble.stamps)
    )


def load_feed(path: str | Path) -> UpdateFeed:
    return loads_feed(Path(path).read_bytes())


def feed_messages(feed: UpdateFeed) -> Iterator[dict[str, Any]]:
    """The protocol messages a client streams to serve this feed."""
    yield {"type": "hello", "schema": FEED_SCHEMA, "spec": feed.spec}
    for ce_index, per_ce in enumerate(feed.stamps):
        yield {"type": "stamps", "ce": ce_index, "stamps": per_ce}
    for ce_index, update in feed.deliveries:
        yield {
            "type": "delivery",
            "ce": ce_index,
            "update": update_to_json(update),
        }
    yield {"type": "end"}
