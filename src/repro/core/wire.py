"""Alert wire encodings (§2).

The paper notes that although an alert conceptually carries all update
histories, "in practice this is often not necessary.  ... some systems do
not need this information at all.  Others need only the update sequence
numbers contained in the histories.  Still others only use these sequence
numbers in a simple equality test, in which case it may be sufficient to
send just a checksum of the histories."

This module makes that concrete:

* four encodings — FULL, SEQNOS, HEADS, CHECKSUM — with byte-size
  accounting (:func:`encode_alert`);
* the *minimum* encoding each AD algorithm needs
  (:func:`minimum_encoding`): AD-2/AD-5 compare only per-variable head
  seqnos (HEADS); AD-3/AD-4/AD-6 need the full seqno lists (SEQNOS);
  AD-1 only equality-tests histories, so a CHECKSUM suffices;
* :class:`ChecksumAD1` — AD-1 reimplemented over checksums alone, which
  the test-suite shows is decision-for-decision identical to AD-1
  (collisions aside);
* a length-prefixed **frame codec** (:func:`encode_frame` /
  :class:`FrameDecoder`) — the byte-stream transport the service runtime
  (:mod:`repro.service`) speaks over its local sockets.  Frames are a
  big-endian 4-byte payload length followed by the payload; a declared
  length above the decoder's ceiling poisons the stream (raises
  :class:`FrameError`) rather than buffering unboundedly.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from repro.core.alert import Alert
from repro.displayers.ad1 import AD1

__all__ = [
    "AlertEncoding",
    "WireAlert",
    "encode_alert",
    "minimum_encoding",
    "ChecksumAD1",
    "checksum_histories",
    "FrameError",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "FrameDecoder",
    "iter_frames",
]

#: Assumed fixed-width field sizes (bytes) for size accounting.
_SEQNO_BYTES = 4
_VALUE_BYTES = 8
_CHECKSUM_BYTES = 8
_VARNAME_BYTES = 8  # fixed-width variable identifier
_CONDNAME_BYTES = 8


class AlertEncoding(Enum):
    """How much of the history set travels with an alert."""

    #: Full histories: every (varname, seqno, value) tuple.
    FULL = "full"
    #: All sequence numbers per variable, no values.
    SEQNOS = "seqnos"
    #: Only the head seqno per variable (``a.seqno.x``).
    HEADS = "heads"
    #: A fixed-size digest of the history seqnos.
    CHECKSUM = "checksum"


@dataclass(frozen=True)
class WireAlert:
    """An alert as it would travel on the back link."""

    condname: str
    encoding: AlertEncoding
    payload: tuple
    size_bytes: int


def checksum_histories(alert: Alert) -> bytes:
    """A stable digest of the alert's history identity.

    Values are excluded (identity is seqno-based, §2.2); the digest is
    deterministic across processes.
    """
    return _checksum(alert.identity())


def _checksum(key: tuple) -> bytes:
    """:func:`checksum_histories` of the alert identified by ``key``."""
    condname, runs = key
    hasher = hashlib.blake2b(digest_size=_CHECKSUM_BYTES)
    hasher.update(condname.encode())
    for var, seqnos in runs:
        hasher.update(var.encode())
        for seqno in seqnos:
            hasher.update(struct.pack("<I", seqno))
    return hasher.digest()


def encode_alert(alert: Alert, encoding: AlertEncoding) -> WireAlert:
    """Encode an alert, computing its on-the-wire payload and size."""
    variables = alert.histories.variables
    if encoding is AlertEncoding.FULL:
        payload = tuple(
            (var, tuple((u.seqno, u.value) for u in alert.histories[var]))
            for var in variables
        )
        size = _CONDNAME_BYTES + sum(
            _VARNAME_BYTES + len(entries) * (_SEQNO_BYTES + _VALUE_BYTES)
            for _, entries in payload
        )
    elif encoding is AlertEncoding.SEQNOS:
        payload = tuple((var, alert.histories.seqnos(var)) for var in variables)
        size = _CONDNAME_BYTES + sum(
            _VARNAME_BYTES + len(seqnos) * _SEQNO_BYTES for _, seqnos in payload
        )
    elif encoding is AlertEncoding.HEADS:
        payload = tuple((var, alert.histories.seqno(var)) for var in variables)
        size = _CONDNAME_BYTES + len(payload) * (_VARNAME_BYTES + _SEQNO_BYTES)
    elif encoding is AlertEncoding.CHECKSUM:
        payload = (checksum_histories(alert),)
        size = _CONDNAME_BYTES + _CHECKSUM_BYTES
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown encoding {encoding!r}")
    return WireAlert(alert.condname, encoding, payload, size)


#: What each algorithm reads from an alert: the part of the identity key
#: its :meth:`~repro.displayers.base.ADAlgorithm.decide` looks at.
_MINIMUM: dict[str, AlertEncoding] = {
    "pass": AlertEncoding.CHECKSUM,   # reads nothing; smallest on offer
    "AD-1": AlertEncoding.CHECKSUM,   # equality test on H only
    "AD-2": AlertEncoding.HEADS,      # compares a.seqno.x to `last`
    "AD-3": AlertEncoding.SEQNOS,     # needs every seqno + spanning gaps
    "AD-4": AlertEncoding.SEQNOS,
    "AD-5": AlertEncoding.HEADS,      # per-variable head comparisons
    "AD-6": AlertEncoding.SEQNOS,
    "adaptive": AlertEncoding.SEQNOS,  # may escalate to AD-3/AD-6
}


def minimum_encoding(algorithm_name: str) -> AlertEncoding:
    """The smallest encoding sufficient for an AD algorithm (§2)."""
    try:
        return _MINIMUM[algorithm_name]
    except KeyError:
        raise KeyError(
            f"unknown AD algorithm {algorithm_name!r}; known: {list(_MINIMUM)}"
        ) from None


# -- length-prefixed frame codec ---------------------------------------------

#: Frame header: big-endian unsigned 32-bit payload length.
_FRAME_HEADER = struct.Struct(">I")

#: Default ceiling on a single frame's payload.  Large enough for any
#: alert or feed message the service ships, small enough that a corrupt
#: length prefix cannot make a decoder buffer gigabytes.
MAX_FRAME_BYTES = 1 << 24  # 16 MiB


class FrameError(ValueError):
    """A malformed frame: oversized, or a stream truncated mid-frame."""


def encode_frame(*parts: bytes, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap the payload ``parts`` (concatenated) in a length-prefixed
    frame, in one join: a large payload is copied once.

    Zero-length payloads are legal (they encode to a bare header); a
    payload above ``max_bytes`` raises :class:`FrameError` — the sender
    must never emit a frame its peer is obliged to reject.
    """
    size = sum(map(len, parts))
    if size > max_bytes:
        raise FrameError(
            f"frame payload of {size} bytes exceeds the "
            f"{max_bytes}-byte ceiling"
        )
    return b"".join((_FRAME_HEADER.pack(size), *parts))


class FrameDecoder:
    """Incremental frame decoder over an arbitrary chunking of the stream.

    Feed it whatever the socket produced; it returns every complete
    payload and buffers the remainder.  Call :meth:`close` at end of
    stream — a non-empty buffer there means the peer died mid-frame,
    which is a :class:`FrameError`, not silent truncation.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self.frames_decoded = 0

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return the payloads completed by it, in order.

        One pass: an offset walks the buffer frame by frame, each payload
        is copied out once (through a view, not a slice of the buffer and
        a copy of that), and the consumed prefix is trimmed once at the
        end.  A :class:`FrameError` leaves the decoder poisoned — the
        stream has no next frame.
        """
        buffer = self._buffer
        buffer.extend(data)
        size = len(buffer)
        header = _FRAME_HEADER.size
        payloads: list[bytes] = []
        offset = 0
        with memoryview(buffer) as view:
            while size - offset >= header:
                (length,) = _FRAME_HEADER.unpack_from(view, offset)
                if length > self.max_bytes:
                    raise FrameError(
                        f"declared frame length {length} exceeds the "
                        f"{self.max_bytes}-byte ceiling"
                    )
                end = offset + header + length
                if end > size:
                    break
                payloads.append(view[offset + header:end].tobytes())
                offset = end
        del buffer[:offset]
        self.frames_decoded += len(payloads)
        return payloads

    def close(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise FrameError(
                f"stream truncated mid-frame: {len(self._buffer)} trailing "
                "bytes do not form a complete frame"
            )


def iter_frames(
    data: bytes, *, max_bytes: int = MAX_FRAME_BYTES
) -> Iterator[bytes]:
    """Decode a fully-buffered byte string of concatenated frames.

    Raises :class:`FrameError` on truncation or an oversized frame.
    """
    decoder = FrameDecoder(max_bytes)
    yield from decoder.feed(data)
    decoder.close()


class ChecksumAD1(AD1):
    """AD-1 operating on history checksums instead of full histories.

    Demonstrates the paper's point: since AD-1 only performs an equality
    test on H, a fixed-size digest carries all the information it needs.
    Modulo hash collisions (2^-64 per pair), its decisions — and so its
    rejection reasons — are :class:`~repro.displayers.ad1.AD1`'s; its
    ``_seen`` holds digests.
    """

    name = "AD-1/checksum"

    def _accept(self, key: tuple) -> bool:
        return _checksum(key) not in self._seen

    def _record(self, key: tuple) -> None:
        self._seen.add(_checksum(key))
