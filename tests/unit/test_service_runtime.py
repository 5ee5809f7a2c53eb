"""Unit tests for the service runtime: feeds, queues, drain, throttling."""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import itertools
import json
import re
import struct
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.update import Update
from repro.core.wire import FrameDecoder, FrameError, encode_frame, iter_frames
from repro.engine.spec import TrialSpec
from repro.service import (
    CLOSE,
    AsyncioServiceRuntime,
    BoundedQueue,
    DirectRuntime,
    FeedMismatchError,
    KernelRuntime,
    MonitorService,
    ServiceConfig,
    check_conformance,
    feed_messages,
    load_feed,
    loads_feed,
    record_feed,
)
from repro.service.feed import (
    FeedSchemaError,
    decode_delivery,
    decode_message,
    encode_message,
)
from repro.service.server import ServiceError, execute_feed
from tests.conftest import Knot, collections_started

SPEC = TrialSpec(
    matrix="single", row="aggressive", algorithm="AD-3", seed=7, n_updates=25
)


@pytest.fixture(scope="module")
def feed():
    return record_feed(SPEC)


@pytest.fixture(scope="module")
def big_feed():
    """A feed no single socket read can carry."""
    return record_feed(dataclasses.replace(SPEC, n_updates=3000))


def records_per_read(feed) -> int:
    """The most delivery records one ``_READ_CHUNK`` read can complete:
    the chunk's whole records plus the one a previous read left partial."""
    from repro.service.server import _READ_CHUNK

    shortest = min(
        len(encode_message(message))
        for message in feed_messages(feed)
        if message["type"] == "delivery"
    )
    return _READ_CHUNK // shortest + 1


def assert_conserved(counters, feed) -> None:
    """Per-CE delivery and alert counters sum to the feed's totals."""

    def total(kind):
        return sum(
            count for key, count in counters.items()
            if key.startswith(f"service/{kind}/")
        )

    assert total("deliver") == len(feed.deliveries)
    assert total("alert") == feed.total_alerts


# -- feed artifact ------------------------------------------------------------

def feed_bytes(feed) -> bytes:
    """The stream a client sends to serve ``feed``: its file's bytes."""
    return b"".join(encode_message(m) for m in feed_messages(feed))


class TestFeed:
    def test_file_round_trip(self, feed, tmp_path):
        assert load_feed(feed.write(tmp_path / "run.feed")) == feed

    def test_file_is_the_stream_a_client_sends(self, feed, tmp_path):
        assert feed.write(tmp_path / "run.feed").read_bytes() == feed_bytes(feed)

    def test_round_trip_is_fixpoint(self, feed):
        data = feed_bytes(feed)
        assert feed_bytes(loads_feed(data)) == data

    def test_per_ce_regroups_deliveries(self, feed):
        streams = feed.per_ce()
        assert len(streams) == feed.replication
        assert sum(len(s) for s in streams) == len(feed.deliveries)
        # Round-robin interleave preserves each CE's delivery order.
        for ce_index, stream in enumerate(streams):
            assert [
                u for ce, u in feed.deliveries if ce == ce_index
            ] == list(stream)

    def test_schema_version_enforced(self, feed):
        tampered = feed_bytes(feed).replace(b"repro.feed/1", b"repro.feed/9")
        with pytest.raises(FeedSchemaError, match="unsupported feed schema"):
            loads_feed(tampered)

    def test_empty_rejected(self):
        with pytest.raises(FeedSchemaError, match="ends before the feed's end"):
            loads_feed(b"")

    def test_header_spec_fields_are_checked(self, feed):
        # Feeds recorded while specs carried a shard ring.
        messages = list(feed_messages(feed))
        messages[0] = {**messages[0], "spec": {"sharding": None, **feed.spec}}
        old = b"".join(map(encode_message, messages))
        with pytest.raises(FeedSchemaError, match="unknown field 'sharding'"):
            loads_feed(old)

    def test_stamps_count_alerts(self, feed):
        assert feed.total_alerts == sum(len(s) for s in feed.stamps)
        assert feed.total_alerts > 0

    def test_message_frame_round_trip(self, feed):
        messages = [decode_message(p) for p in iter_frames(feed_bytes(feed))]
        assert [m["type"] for m in messages] == (
            ["hello"] + ["stamps"] * feed.replication
            + ["delivery"] * len(feed.deliveries) + ["end"]
        )
        assert messages == list(feed_messages(feed))

    def test_recording_is_deterministic(self, feed):
        assert record_feed(SPEC) == feed


# -- the delivery record ------------------------------------------------------

def delivery(ce=0, var="x", seqno=1, value=0.0):
    return {
        "type": "delivery",
        "ce": ce,
        "update": {"var": var, "seqno": seqno, "value": value},
    }


def payload_of(frame: bytes) -> bytes:
    (payload,) = iter_frames(frame)
    return payload


class TestDeliveryRecord:
    def test_layout(self):
        frame = encode_message(delivery(ce=2, var="x", seqno=7, value=3000.5))
        assert len(frame) == 24  # against ~80 bytes of canonical JSON
        assert payload_of(frame) == (
            b"\x01" + struct.pack(">HQd", 2, 7, 3000.5) + b"x"
        )
        assert decode_delivery(payload_of(frame)) == (2, Update("x", 7, 3000.5))

    @given(
        ce=st.integers(0, 2**16 - 1),
        var=st.text(min_size=1),
        seqno=st.integers(0, 2**64 - 1),
        value=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, ce, var, seqno, value):
        message = delivery(ce, var, seqno, value)
        decoded = decode_message(payload_of(encode_message(message)))
        # Bitwise on the value: the sign of zero survives.
        assert struct.pack(">d", decoded["update"].pop("value")) == struct.pack(
            ">d", message["update"].pop("value")
        )
        assert decoded == message

    @pytest.mark.parametrize(
        "message",
        [
            delivery(ce=-1),
            delivery(ce=2**16),
            delivery(ce=1.0),
            delivery(seqno=-1),
            delivery(seqno=2**64),
            delivery(value="hot"),
            delivery(value=None),
            delivery(value=10**400),
            delivery(var=""),
            delivery(var=b"x"),
            delivery(var="\ud800"),  # a lone surrogate has no UTF-8 form
            {"type": "delivery", "ce": 0},
        ],
        ids=repr,
    )
    def test_sender_rejects_what_the_record_cannot_carry(self, message):
        with pytest.raises(FeedSchemaError):
            encode_message(message)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_decode_names_a_non_finite_value(self, value):
        payload = payload_of(encode_message(delivery(ce=1, seqno=3, value=value)))
        with pytest.raises(FeedSchemaError) as caught:
            decode_delivery(payload)
        assert str(caught.value) == (
            f"the delivery record of 3x to CE2 holds a non-finite value {value!r}"
        )

    def test_control_messages_stay_json(self):
        for message in ({"type": "end"}, {"type": "error", "error": "x"}):
            payload = payload_of(encode_message(message))
            assert json.loads(payload) == message
            assert decode_delivery(payload) is None
            assert decode_message(payload) == message

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"\x02" + bytes(18) + b"x",  # a stamp record of part stamps
            b"\x04" + bytes(18) + b"x",  # unknown tag
            b"not json",
            b"[1, 2]",
            json.dumps(delivery()).encode(),  # the retired JSON encoding
        ],
    )
    def test_decode_rejects_with_schema_error(self, payload):
        with pytest.raises(FeedSchemaError):
            decode_message(payload)


# -- the stamp and result records ---------------------------------------------

def stamps_message(ce=0, pairs=((1.5, 3), (2.0, 9))):
    return {"type": "stamps", "ce": ce, "stamps": tuple(pairs)}


def result_message(displayed=("line one", "line two")):
    return {
        "type": "result",
        "displayed": list(displayed),
        "verdicts": {"ordered": True, "complete": False, "consistent": None},
        "counters": {"service/deliver/ce1": 3},
        "latency_ms": {"p50": 0.25, "p99": 1.5, "max": 2.0},
        "peak_reorder": 1,
    }


def assert_never_leaks(payload, well_formed=lambda cut: False):
    """Every strict prefix of ``payload`` decodes only if
    ``well_formed(cut)``, and otherwise is a FeedSchemaError — never a
    struct.error, IndexError or UnicodeDecodeError."""
    for cut in range(len(payload)):
        if well_formed(cut):
            decode_message(payload[:cut])
        else:
            with pytest.raises(FeedSchemaError):
                decode_message(payload[:cut])


def times_bitwise(message):
    return [struct.pack(">d", time) for time, _ in message["stamps"]]


class TestStampRecord:
    def test_layout(self):
        frame = encode_message(stamps_message(ce=1))
        assert len(frame) == 4 + 3 + 2 * 16  # against ~40 bytes of JSON
        assert payload_of(frame) == (
            b"\x02" + struct.pack(">H", 1)
            + struct.pack(">dQ", 1.5, 3) + struct.pack(">dQ", 2.0, 9)
        )

    @given(
        ce=st.integers(0, 2**16 - 1),
        pairs=st.lists(st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(0, 2**64 - 1),
        )).map(sorted),
    )
    @example(ce=0, pairs=[])
    @example(ce=2**16 - 1, pairs=[(-0.0, 0), (0.0, 2**64 - 1)])
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, ce, pairs):
        message = stamps_message(ce, pairs)
        decoded = decode_message(payload_of(encode_message(message)))
        assert decoded == message
        # Bitwise on the times: the sign of zero survives.
        assert times_bitwise(decoded) == times_bitwise(message)

    @pytest.mark.parametrize(
        "message",
        [
            stamps_message(ce=-1),
            stamps_message(ce=2**16),
            stamps_message(pairs=[(1.0, -1)]),
            stamps_message(pairs=[(1.0, 2**64)]),
            stamps_message(pairs=[(1.0, 2.0)]),
            stamps_message(pairs=[("soon", 1)]),
            stamps_message(pairs=[(1.0,)]),
            stamps_message(pairs=[(10**400, 1)]),
            {"type": "stamps", "ce": 0},
            {"type": "stamps", "ce": 0, "stamps": None},
        ],
        ids=repr,
    )
    def test_sender_rejects_what_the_record_cannot_carry(self, message):
        with pytest.raises(FeedSchemaError):
            encode_message(message)

    def test_a_strict_prefix_is_an_error_or_fewer_whole_stamps(self):
        message = stamps_message(pairs=[(1.0, 1), (2.0, 2), (3.0, 3)])
        payload = payload_of(encode_message(message))
        assert_never_leaks(payload, lambda cut: cut >= 3 and (cut - 3) % 16 == 0)
        for count in range(3):
            assert decode_message(payload[:3 + 16 * count]) == stamps_message(
                pairs=message["stamps"][:count]
            )

    @pytest.mark.parametrize(
        "pairs, named",
        [
            ([(float("nan"), 5)], "non-finite time"),
            ([(float("inf"), 5), (float("inf"), 6)], "non-finite time"),
            ([(float("-inf"), 5), (1.0, 6)], "non-finite time"),
            ([(1.0, 5), (float("nan"), 6), (2.0, 7)], "(time, index) order"),
            ([(2.0, 5), (1.0, 6)], "(time, index) order"),
            ([(1.0, 6), (1.0, 5)], "(time, index) order"),
        ],
        ids=repr,
    )
    def test_decode_rejects_what_the_merge_cannot_order(self, pairs, named):
        payload = b"\x02\x00\x00" + b"".join(
            struct.pack(">dQ", time, index) for time, index in pairs
        )
        with pytest.raises(FeedSchemaError, match=re.escape(named)):
            decode_message(payload)

    def test_decode_rejects_a_block_of_part_stamps(self):
        payload = payload_of(encode_message(stamps_message()))
        for bad in (payload + b"\x00", payload[:-1], payload[:2]):
            with pytest.raises(FeedSchemaError, match="is not 3 \\+ 16n"):
                decode_message(bad)


class TestResultRecord:
    def test_layout(self):
        message = result_message()
        header = json.dumps(
            {k: v for k, v in message.items() if k not in ("type", "displayed")},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        assert payload_of(encode_message(message)) == (
            b"\x03" + struct.pack(">I", len(header)) + header
            + b"line one\nline two"
        )

    @given(
        displayed=st.lists(
            st.text(min_size=1).filter(lambda line: "\n" not in line)
        ),
        p50=st.floats(allow_nan=False, allow_infinity=False),
        peak=st.integers(0, 2**40),
    )
    @example(displayed=[], p50=0.0, peak=0)
    @example(
        displayed=[f'{{"alert":{i},"seqnos":[{i},{i + 1}]}}' for i in range(5000)],
        p50=-0.0, peak=7,
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, displayed, p50, peak):
        message = {
            **result_message(displayed),
            "latency_ms": {"p50": p50},
            "peak_reorder": peak,
        }
        decoded = decode_message(payload_of(encode_message(message)))
        assert decoded == message
        assert all(type(line) is str for line in decoded["displayed"])

    @pytest.mark.parametrize(
        "message",
        [
            result_message(["a", ""]),
            result_message([""]),
            result_message(["a\nb"]),
            result_message(["\n"]),
            result_message([b"bytes"]),
            result_message(["\ud800"]),  # a lone surrogate has no UTF-8 form
            {**result_message(), "verdicts": object()},
            {"type": "result"},
        ],
        ids=repr,
    )
    def test_sender_rejects_what_the_record_cannot_carry(self, message):
        with pytest.raises(FeedSchemaError):
            encode_message(message)

    def test_a_strict_prefix_never_leaks_a_decoder_error(self):
        message = result_message(["caf\u00e9", "na\u00efve"])
        payload = payload_of(encode_message(message))
        (length,) = struct.unpack_from(">I", payload, 1)
        body = payload[5 + length:]

        def well_formed(cut):  # past the header, on a whole character
            if cut < 5 + length:
                return False
            try:
                text = body[:cut - 5 - length].decode()
            except UnicodeDecodeError:
                return False
            return "" not in (text.split("\n") if text else [])

        assert_never_leaks(payload, well_formed)

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x03",
            b"\x03\x00\x00\x00\x09{}",  # a header longer than the record
            b"\x03\x00\x00\x00\x02[]",  # a header that is not an object
            b"\x03\x00\x00\x00\x02{]",  # a header that is not JSON
            b"\x03\x00\x00\x00\x02{}\xff\xfe",  # lines that are not UTF-8
            b"\x03\x00\x00\x00\x02{}a\n\nb",  # an empty line
            b"\x03\x00\x00\x00\x02{}a\n",  # an empty last line
            json.dumps(result_message()).encode(),  # the retired JSON encoding
        ],
    )
    def test_decode_rejects_with_schema_error(self, payload):
        with pytest.raises(FeedSchemaError):
            decode_message(payload)


# -- offline runtimes ---------------------------------------------------------

class TestOfflineRuntimes:
    def test_direct_matches_both_kernels(self, feed):
        report = check_conformance(
            feed, [KernelRuntime("object"), KernelRuntime("array"), DirectRuntime()]
        )
        assert report.identical

    def test_kernel_runtime_rejects_tampered_deliveries(self, feed):
        # Update equality is (varname, seqno) — the stream point's
        # identity — so the tamper must move the seqno to be observable.
        first_ce, first_update = feed.deliveries[0]
        tampered = dataclasses.replace(
            feed,
            deliveries=(
                (first_ce, Update(first_update.varname,
                                  first_update.seqno + 1000,
                                  first_update.value)),
                *feed.deliveries[1:],
            ),
        )
        with pytest.raises(FeedMismatchError, match="different"):
            KernelRuntime("array").execute(tampered)

    def test_direct_runtime_rejects_tampered_stamps(self, feed):
        # Dropping one stamp desynchronizes alerts from stamps.
        tampered = dataclasses.replace(
            feed, stamps=(feed.stamps[0][:-1], *feed.stamps[1:])
        )
        with pytest.raises(FeedMismatchError):
            DirectRuntime().execute(tampered)

    def test_displayed_bytes_are_framed_canonical_lines(self, feed):
        result = DirectRuntime().execute(feed)
        payloads = list(iter_frames(result.displayed_bytes()))
        assert len(payloads) == len(result.displayed)
        import json

        first = json.loads(payloads[0])
        assert set(first) == {"condname", "source", "histories"}


class TestNonFiniteValues:
    """A seqno whose value is not finite on every CE that received it is a
    named schema error on both ways into a runtime — never the merge's
    "conflicting updates" (a NaN is unequal to itself)."""

    @staticmethod
    def poisoned(feed, value):
        deliveries = tuple(
            (ce, Update(u.varname, u.seqno, value) if u.seqno == 3 else u)
            for ce, u in feed.deliveries
        )
        assert sum(u.seqno == 3 for _, u in feed.deliveries) == 2
        return dataclasses.replace(feed, deliveries=deliveries)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_feed_file_names_the_record(self, feed, value, tmp_path):
        path = self.poisoned(feed, value).write(tmp_path / "poisoned.feed")
        ce = next(ce for ce, u in feed.deliveries if u.seqno == 3)
        with pytest.raises(FeedSchemaError) as caught:
            load_feed(path)
        assert str(caught.value) == (
            f"the delivery record of 3x to CE{ce + 1} holds a non-finite "
            f"value {value!r}"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_socket_names_the_record(self, feed, value):
        with pytest.raises(ServiceError) as caught:
            AsyncioServiceRuntime().execute(self.poisoned(feed, value))
        assert re.fullmatch(
            rf"FeedSchemaError: the delivery record of 3x to CE[12] holds "
            rf"a non-finite value {re.escape(repr(value))}",
            str(caught.value),
        )


# -- asyncio service ----------------------------------------------------------

class TestAsyncioService:
    def test_service_matches_direct(self, feed):
        service = AsyncioServiceRuntime().execute(feed)
        direct = DirectRuntime().execute(feed)
        assert service.displayed_bytes() == direct.displayed_bytes()
        assert service.verdicts == direct.verdicts

    def test_records_that_span_reads(self, big_feed, monkeypatch):
        # 64-byte reads: every stamp record and the result record reach
        # their reader over many reads.
        import repro.service.server as server

        assert min(map(len, big_feed.stamps)) * 16 > 64
        monkeypatch.setattr(server, "_READ_CHUNK", 64)
        result = AsyncioServiceRuntime().execute(big_feed)
        direct = DirectRuntime().execute(big_feed)
        assert len(result.displayed) * 20 > 64
        assert result.displayed_bytes() == direct.displayed_bytes()
        assert result.verdicts == direct.verdicts

    def test_graceful_drain_flushes_all_inflight_alerts(self, feed):
        # An artificially slow CE step: the client has written its whole
        # feed, end message included, long before the server has stepped
        # it.  The drain must step every delivery before the end — the
        # displayed count equals the reference run's, nothing is cut off
        # at shutdown.
        async def slow(ce_index, update):
            await asyncio.sleep(0.002)

        result = AsyncioServiceRuntime(pace=slow).execute(feed)
        reference = DirectRuntime().execute(feed)
        assert len(result.displayed) == len(reference.displayed)
        assert result.displayed_bytes() == reference.displayed_bytes()

    def test_slow_consumer_activates_throttling(self, big_feed, monkeypatch):
        # The server has no queue of its own: it takes one read from the
        # socket and steps it before taking another, so behind a slow step
        # the client's backlog waits in the socket, where TCP's flow
        # control holds it.  Under a pace that yields at every step, the
        # client writes the whole feed while the server steps its first
        # read; at every step the server has taken less than one
        # _READ_CHUNK past the record it steps, while more than a read's
        # worth of what the client wrote waits untaken.
        from repro.service.server import _READ_CHUNK

        #: Wire offset of the end of each frame: hello, stamp records,
        #: deliveries, end.
        frame_ends = list(itertools.accumulate(
            len(encode_message(message)) for message in feed_messages(big_feed)
        ))[big_feed.replication:]
        taken = written = stepped = 0
        ahead: list[int] = []
        backlog: list[int] = []
        run_pipeline = MonitorService._run_pipeline
        write = asyncio.StreamWriter.write

        def counting_write(self, data):
            nonlocal written
            written += len(data)  # the reply is written after every step
            return write(self, data)

        async def counting_pipeline(self, reader):
            read = reader.read

            async def counting_read(n):
                nonlocal taken
                data = await read(n)
                taken += len(data)
                return data

            reader.read = counting_read  # this connection's server side only
            return await run_pipeline(self, reader)

        async def slow(ce_index, update):
            nonlocal stepped
            stepped += 1
            ahead.append(taken - frame_ends[stepped])
            backlog.append(written - taken)
            await asyncio.sleep(0)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
        monkeypatch.setattr(MonitorService, "_run_pipeline", counting_pipeline)
        result = AsyncioServiceRuntime(pace=slow).execute(big_feed)

        assert stepped == len(big_feed.deliveries)
        assert 0 <= min(ahead) and max(ahead) < _READ_CHUNK
        assert max(backlog) > _READ_CHUNK
        held = result.counters["service/peak/read"]
        assert 1 <= held <= records_per_read(big_feed) < len(big_feed.deliveries)
        assert_conserved(result.counters, big_feed)
        assert result.displayed_bytes() == (
            DirectRuntime().execute(big_feed).displayed_bytes()
        )

    def test_unthrottled_run_reports_no_backpressure(self, feed):
        # Nothing between the reader and the AD can block or throttle, so
        # the only counters are conservation, the held peak and the drain.
        result = AsyncioServiceRuntime().execute(feed)
        kinds = {key.split("/")[1] for key in result.counters}
        assert kinds == {"deliver", "alert", "peak", "drain"}
        assert result.counters["service/peak/read"] <= records_per_read(feed)

    def test_latency_clock_starts_before_the_ce_step(self, feed):
        # ingest_ns is read as the record is decoded, before the pace hook
        # and the CE step: a 1 ms step shows in every displayed latency.
        async def one_ms(ce_index, update):
            await asyncio.sleep(0.001)

        result = AsyncioServiceRuntime(pace=one_ms).execute(feed)
        assert result.latency_ms["p50"] >= 1.0
        assert result.displayed_bytes() == (
            DirectRuntime().execute(feed).displayed_bytes()
        )

    def test_latency_percentiles_reported(self, feed):
        result = AsyncioServiceRuntime().execute(feed)
        assert set(result.latency_ms) == {"p50", "p99", "max"}
        assert 0 < result.latency_ms["p50"] <= result.latency_ms["p99"]
        assert result.latency_ms["p99"] <= result.latency_ms["max"]

    def test_counters_cover_every_stage(self, feed):
        # Every delivery stepped through its CE, every alert through the
        # merge, counted per CE.
        result = AsyncioServiceRuntime().execute(feed)
        ces = {f"ce{i + 1}" for i in range(feed.replication)}
        for kind in ("deliver", "alert"):
            assert {
                key.rsplit("/", 1)[1]
                for key in result.counters
                if key.startswith(f"service/{kind}/")
            } == ces
        assert_conserved(result.counters, feed)
        assert result.counters["service/drain/pipeline"] == 1

    def test_server_aggregates_counters_across_connections(self, feed):
        async def run():
            service = MonitorService(ServiceConfig())
            await service.start()
            try:
                for _ in range(2):
                    await execute_feed(feed, service.host, service.port)
            finally:
                await service.stop()
            return service

        service = asyncio.run(run())
        assert service.connections_handled == 2
        assert service.counters.total("service", "deliver") == 2 * len(
            feed.deliveries
        )
        assert service.counters.total("service", "alert") == 2 * feed.total_alerts

    def test_single_variable_verdicts_are_folded_not_recomputed(
        self, feed, monkeypatch
    ):
        import repro.props.report as report

        reference = DirectRuntime().execute(feed)

        def recompute(*args, **kwargs):
            raise AssertionError("the service re-decided the whole run")

        monkeypatch.setattr(report, "evaluate_run", recompute)
        result = AsyncioServiceRuntime().execute(feed)
        assert result.verdicts == reference.verdicts
        assert result.displayed_bytes() == reference.displayed_bytes()

    def test_end_only_flushes(self, monkeypatch):
        # By the feed's end every merge batch has folded its displayed
        # alerts and the CEs' updates below the watermark: what is left
        # is the run above the lagging CE's last seqno.
        from repro.props.fold import VerdictFold

        long = record_feed(dataclasses.replace(SPEC, n_updates=400))
        at_end = []
        report = VerdictFold.report

        def probed(fold):
            at_end.append(fold.held)
            return report(fold)

        monkeypatch.setattr(VerdictFold, "report", probed)
        result = AsyncioServiceRuntime().execute(long)
        assert at_end and at_end[0] <= 10, at_end
        assert result.verdicts == DirectRuntime().execute(long).verdicts

    def test_multi_variable_verdicts_are_decided_at_the_end(self, monkeypatch):
        import repro.props.report as report

        multi = record_feed(TrialSpec(
            "multi", "aggressive", "AD-5", seed=3, n_updates=30
        ))
        reference = DirectRuntime().execute(multi)
        calls = []
        evaluate_run = report.evaluate_run

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return evaluate_run(*args, **kwargs)

        monkeypatch.setattr(report, "evaluate_run", counted)
        result = AsyncioServiceRuntime().execute(multi)
        assert len(calls) == 1
        assert result.verdicts == reference.verdicts
        assert result.displayed_bytes() == reference.displayed_bytes()

    def test_tampered_stream_reported_as_error(self, feed):
        from repro.service import ServiceError

        bad = dataclasses.replace(
            feed, stamps=(feed.stamps[0][:-1], *feed.stamps[1:])
        )
        with pytest.raises(ServiceError, match="FeedMismatchError"):
            AsyncioServiceRuntime().execute(bad)


# -- hostile and malformed streams -------------------------------------------

async def converse(
    service: MonitorService, *writes: bytes, eof: bool = False
) -> dict:
    """Send raw bytes to a live service (then, with ``eof``, end the
    stream); return its one reply message."""
    reader, writer = await asyncio.open_connection(service.host, service.port)
    try:
        for data in writes:
            writer.write(data)
            await writer.drain()
        if eof:
            writer.write_eof()
        decoder = FrameDecoder()
        while True:  # a hang is the failure this guards against
            data = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
            assert data, "service closed the connection without a reply"
            payloads = decoder.feed(data)
            if payloads:
                return decode_message(payloads[0])
    finally:
        writer.close()


def with_service(scenario):
    async def run():
        service = MonitorService(ServiceConfig())
        await service.start()
        try:
            return await asyncio.wait_for(scenario(service), timeout=60)
        finally:
            await service.stop()

    return asyncio.run(run())


def assert_the_file_reader_agrees(stream: bytes, reply: dict) -> None:
    """``loads_feed`` rejects the bytes the server rejected, in the words
    of the server's error reply."""
    assert reply["type"] == "error", reply
    with pytest.raises((FeedSchemaError, FrameError, FeedMismatchError)) as caught:
        loads_feed(stream)
    assert f"{type(caught.value).__name__}: {caught.value}" == reply["error"]


def on_hello(tamper):
    return lambda messages: tamper(messages[0])


def drop_stamp_records(messages):
    messages[:] = [m for m in messages if m["type"] != "stamps"]


class TestHostileStreams:
    def test_malformed_records_end_in_an_error_frame(self, feed):
        frames = [encode_message(m) for m in feed_messages(feed)]
        first = 1 + feed.replication  # hello, stamp records, deliveries
        preamble, end = b"".join(frames[:first]), frames[-1]
        record = payload_of(frames[first])
        hostile = [record[:cut] for cut in range(len(record))]  # strict prefixes
        hostile += [
            b"\x04" + record[1:],  # unknown tag
            record[:19] + b"\xff\xfe",  # varname is not UTF-8
            json.dumps(delivery()).encode(),  # JSON delivery mid-feed
        ]
        # Every strict prefix of the other two records, and their retired
        # JSON encodings, mid-feed too.
        for message in (stamps_message(), result_message()):
            bulk = payload_of(encode_message(message))
            hostile += [bulk[:cut] for cut in range(len(bulk))]
            hostile.append(json.dumps(message).encode())

        # A valid delivery first, so the stages are mid-stream when the
        # bad record arrives.
        streams = [
            preamble + frames[first] + encode_frame(payload) + end
            for payload in hostile
        ]

        async def scenario(service):
            return [await converse(service, stream) for stream in streams]

        for stream, reply in zip(streams, with_service(scenario)):
            assert reply["type"] == "error", stream
            assert reply["error"].startswith("FeedSchemaError"), (stream, reply)
            assert_the_file_reader_agrees(stream, reply)

    def test_out_of_range_ce_index_is_a_mismatch_not_a_hang(self, feed):
        frames = [encode_message(m) for m in feed_messages(feed)]
        stray = encode_message(delivery(ce=feed.replication))

        stream = b"".join(frames[:5]) + stray + b"".join(frames[5:])
        reply = with_service(lambda service: converse(service, stream))
        assert reply["type"] == "error"
        assert reply["error"].startswith("FeedMismatchError: delivery targets CE")
        assert_the_file_reader_agrees(stream, reply)

    def test_frames_after_end_are_an_error_not_a_silent_drop(self, feed):
        frames = [encode_message(m) for m in feed_messages(feed)]
        complete = b"".join(frames)

        streams = [
            complete,
            complete + frames[1] + frames[2],
            complete + frames[1][:3],
            complete + frames[-1],  # two ends
        ]

        async def scenario(service):
            return [await converse(service, stream) for stream in streams]

        clean, trailing_frames, trailing_bytes, two_ends = with_service(scenario)
        assert clean["type"] == "result"
        assert trailing_frames["type"] == "error"
        assert trailing_frames["error"].startswith("FeedSchemaError: 2 frames")
        assert trailing_bytes["type"] == "error"
        assert "3 bytes of a partial frame" in trailing_bytes["error"]
        assert trailing_bytes["error"].startswith("FeedSchemaError: 0 frames")
        assert two_ends["error"].startswith("FeedSchemaError: 1 frames")
        assert loads_feed(complete) == feed
        for stream, reply in zip(
            streams[1:], (trailing_frames, trailing_bytes, two_ends)
        ):
            assert_the_file_reader_agrees(stream, reply)

    def test_a_stream_cut_short_is_the_same_error_in_both_readers(self, feed):
        frames = [encode_message(m) for m in feed_messages(feed)]
        complete = b"".join(frames)
        preamble = b"".join(frames[:1 + feed.replication])
        streams = [
            b"",
            frames[0][:10],  # mid-hello
            frames[0],  # the hello alone
            preamble,  # no delivery
            preamble + frames[-2][:-3],  # mid-delivery
            complete[:-len(frames[-1])],  # every delivery, no end
            complete[:-7],  # mid-end
        ]

        async def scenario(service):
            return [
                await converse(service, stream, eof=True) for stream in streams
            ]

        replies = with_service(scenario)
        for stream, reply in zip(streams, replies):
            assert_the_file_reader_agrees(stream, reply)
        assert [reply["error"].split(":")[0] for reply in replies] == [
            "FeedSchemaError", "FrameError", "FeedSchemaError",
            "FeedSchemaError", "FrameError", "FeedSchemaError", "FrameError",
        ]

    @pytest.mark.parametrize(
        "tamper, named",
        [
            pytest.param(
                on_hello(lambda h: h.pop("spec")), "hello has no 'spec' field",
                id="no-spec",
            ),
            pytest.param(
                drop_stamp_records, "no stamp record follows the hello",
                id="no-stamps",
            ),
            pytest.param(
                on_hello(lambda h: h["spec"].update(bogus=1)),
                "unknown field 'bogus'",
                id="unknown-spec-field",
            ),
            pytest.param(
                # CE1's stamp block ends half-way through a stamp.
                lambda m: m.__setitem__(1, payload_of(encode_message(m[1]))[:-8]),
                "is not 3 + 16n",
                id="stamp-not-a-pair",
            ),
            pytest.param(
                # The merge releases a CE's alerts in its stamps' order.
                lambda m: m[1]["stamps"].reverse(),
                "the stamp record of CE1 is not in (time, index) order",
                id="stamps-out-of-order",
            ),
            pytest.param(
                on_hello(lambda h: h["spec"].update(row="nope")),
                "field 'row' is 'nope'",
                id="unknown-row",
            ),
            pytest.param(
                on_hello(lambda h: h["spec"].update(algorithm="AD-9")),
                "field 'algorithm' is 'AD-9'",
                id="unknown-algorithm",
            ),
            pytest.param(
                on_hello(lambda h: h["spec"].pop("seed")), "no 'seed' field",
                id="missing-spec-field",
            ),
            pytest.param(
                on_hello(lambda h: h["spec"].update(matrix=["single"])),
                "field 'matrix'",
                id="unhashable-matrix",
            ),
            pytest.param(
                on_hello(lambda h: h["spec"].update(faults={"bogus": 1})),
                "field 'spec' is malformed",
                id="nested-config",
            ),
            pytest.param(
                # JSON's ``Infinity``: a run with it would divide by zero.
                on_hello(lambda h: h["spec"].update(
                    faults={"ce_crash_rate": 0.01, "ce_mean_repair": float("inf")}
                )),
                "ce_mean_repair must be finite",
                id="non-finite-knob",
            ),
            pytest.param(
                on_hello(lambda h: h.update(stamps=[[[1.0, 0]], []])),
                "hello field 'stamps' is not accepted",
                id="stamps-in-the-hello",
            ),
            pytest.param(
                lambda m: m.insert(1, m.pop(2)),
                "the stamp record of CE2 arrived where CE1's was due",
                id="stamp-records-swapped",
            ),
            pytest.param(
                lambda m: m.insert(2, m[1]),
                "the stamp record of CE1 arrived where CE2's was due",
                id="stamp-record-repeated",
            ),
            pytest.param(
                # CE2's record after the first delivery, which is CE1's.
                lambda m: m.insert(3, m.pop(2)),
                "a stamp record of CE2 after the first delivery",
                id="stamps-after-a-delivery",
            ),
            pytest.param(
                lambda m: m[1].update(stamps=[[float("nan"), 5]]),
                "the stamp record of CE1 holds a non-finite time",
                id="nan-stamp",
            ),
            pytest.param(
                lambda m: m[1].update(
                    stamps=[[float("inf"), 5], [float("inf"), 6]]
                ),
                "the stamp record of CE1 holds a non-finite time",
                id="infinite-stamps",
            ),
            pytest.param(
                lambda m: m[3]["update"].update(value=float("nan")),
                "to CE1 holds a non-finite value nan",
                id="nan-value",
            ),
        ],
    )
    def test_a_malformed_hello_is_a_named_error(self, feed, tamper, named):
        # The hello and the stamp records after it, all the server reads
        # before the first delivery.  A tamper edits the messages in
        # place, or puts raw payload bytes where a message was.
        messages = json.loads(json.dumps(list(feed_messages(feed))))
        assert [m["type"] for m in messages[:4]] == [
            "hello", "stamps", "stamps", "delivery"
        ] and messages[3]["ce"] == 0
        tamper(messages)
        stream = b"".join(
            encode_frame(m) if isinstance(m, bytes) else encode_message(m)
            for m in messages
        )

        reply = with_service(lambda service: converse(service, stream))
        assert reply["type"] == "error"
        assert reply["error"].startswith("FeedSchemaError: "), reply
        assert named in reply["error"], reply
        assert_the_file_reader_agrees(stream, reply)


class TestIdleServer:
    def test_serve_once_returns_at_the_close_without_a_timer(self, feed, monkeypatch):
        async def no_polling(*args, **kwargs):
            raise AssertionError("the server polled: asyncio.sleep was called")

        async def run():
            service = MonitorService(ServiceConfig())
            await service.start()
            serving = asyncio.ensure_future(service.serve_until(once=True))
            result = await execute_feed(feed, service.host, service.port)
            await asyncio.wait_for(serving, timeout=10)
            return service, result

        monkeypatch.setattr(asyncio, "sleep", no_polling)
        service, result = asyncio.run(run())
        assert service.connections_handled == 1
        assert result.displayed_bytes() == DirectRuntime().execute(feed).displayed_bytes()

    def test_serve_forever_is_cancelled_not_timed_out(self):
        async def run():
            service = MonitorService(ServiceConfig())
            serving = asyncio.ensure_future(service.serve_until())
            while service._server is None:
                await asyncio.sleep(0)
            serving.cancel()
            with pytest.raises(asyncio.CancelledError):
                await serving
            return service

        assert asyncio.run(run())._server is None  # stopped on the way out


class TestCollectorScope:
    """The service pauses the cyclic collector while a pipeline is live
    and collects once per connection at close (DESIGN.md, Collector policy)."""

    @pytest.fixture(scope="class")
    def long_feed(self):
        long = record_feed(dataclasses.replace(SPEC, n_updates=2_000))
        assert len(long.deliveries) >= 2_000
        return long

    def test_no_collection_starts_while_a_connection_streams(
        self, long_feed, monkeypatch, collector_restored
    ):
        run_pipeline = MonitorService._run_pipeline
        inside: list[int] = []
        enabled_at_update = set()

        async def probed_pipeline(self, reader):
            # In-process the client encodes its first frames with the
            # collector on, before the server has read a byte: count from
            # the pipeline's start, not from the connection's.
            entered = len(started)
            try:
                return await run_pipeline(self, reader)
            finally:
                inside.extend(started[entered:])

        async def pace(ce_index, update):
            enabled_at_update.add(gc.isenabled())

        monkeypatch.setattr(MonitorService, "_run_pipeline", probed_pipeline)
        gc.enable()
        with collections_started() as started:
            result = AsyncioServiceRuntime(pace=pace).execute(long_feed)
        assert len(result.displayed) > 100
        assert enabled_at_update == {False}
        assert inside == []
        assert gc.isenabled()

    @pytest.mark.parametrize("before", [True, False])
    @pytest.mark.parametrize("tampered", [False, True])
    def test_stop_hands_back_the_collector_it_found(
        self, feed, before, tampered, collector_restored
    ):
        if tampered:
            feed = dataclasses.replace(
                feed, stamps=(feed.stamps[0][:-1], *feed.stamps[1:])
            )

        async def run():
            service = MonitorService(ServiceConfig())
            await service.start()
            try:
                return await execute_feed(feed, service.host, service.port)
            except ServiceError as exc:
                return exc
            finally:
                await service.stop()

        (gc.enable if before else gc.disable)()
        outcome = asyncio.run(run())
        assert gc.isenabled() is before
        assert isinstance(outcome, ServiceError) is tampered

    def test_a_cycle_built_in_the_pipeline_is_gone_at_close(
        self, feed, collector_restored
    ):
        knots = []

        async def pace(ce_index, update):
            knots.append(weakref.ref(Knot()))

        # The caller's collector is off and stays off, so only the
        # service's own collect-at-close can be what reclaims them.
        gc.disable()
        AsyncioServiceRuntime(pace=pace).execute(feed)
        assert not gc.isenabled()
        assert len(knots) == len(feed.deliveries)
        assert all(knot() is None for knot in knots)

    def test_fifty_connections_leave_no_more_behind_than_one(
        self, feed, collector_restored
    ):
        async def run():
            service = MonitorService(ServiceConfig())
            await service.start()
            counts = []
            try:
                for _ in range(50):
                    await execute_feed(feed, service.host, service.port)
                    counts.append(len(gc.get_objects()))
            finally:
                await service.stop()
            return counts

        gc.disable()  # as above: what is reclaimed, the service reclaimed
        counts = asyncio.run(run())
        assert counts[-1] - counts[0] < 100, counts


class TestOverlappingConnections:
    def test_two_live_connections_conform_and_share_one_collector_pause(
        self, feed, monkeypatch, collector_restored
    ):
        # Each connection's reader yields between slices of a read, so two
        # live pipelines take turns slice by slice on one loop.  Neither
        # may see the other's state, and the one collector pause they
        # share is taken by the first and released by the last.
        import repro.service.server as server

        other = record_feed(dataclasses.replace(  # several reads long
            SPEC, algorithm="AD-4", seed=11, n_updates=3000
        ))
        events: list[str] = []
        paused = server.collector_paused
        run_pipeline = MonitorService._run_pipeline
        live: list[object] = []
        both_live = asyncio.Event()

        @contextlib.contextmanager
        def counted_pause():
            events.append("pause")
            with paused():
                yield
            events.append("resume")

        async def overlapping(self, reader):
            # Neither pipeline reads until both are live.
            live.append(reader)
            if len(live) == 2:
                both_live.set()
            await both_live.wait()
            try:
                return await run_pipeline(self, reader)
            finally:
                events.append("done")

        async def pace(ce_index, update):
            events.append("paused" if not gc.isenabled() else "collecting")

        async def run():
            service = MonitorService(ServiceConfig(), pace=pace)
            await service.start()
            try:
                return await asyncio.gather(
                    execute_feed(feed, service.host, service.port),
                    execute_feed(other, service.host, service.port),
                )
            finally:
                await service.stop()

        monkeypatch.setattr(server, "collector_paused", counted_pause)
        monkeypatch.setattr(MonitorService, "_run_pipeline", overlapping)
        gc.enable()
        results = asyncio.run(run())

        for sent, result in zip((feed, other), results):
            reference = DirectRuntime().execute(sent)
            assert result.displayed_bytes() == reference.displayed_bytes()
            assert result.verdicts == reference.verdicts
        steps = [event for event in events if event in ("paused", "collecting")]
        assert len(steps) == len(feed.deliveries) + len(other.deliveries)
        assert set(steps) == {"paused"}
        lifecycle = [event for event in events if event not in ("paused", "collecting")]
        assert lifecycle == ["pause", "done", "done", "resume"]
        assert gc.isenabled()


class TestReaderBatches:
    def test_one_step_per_read_and_no_queue_hop(self, big_feed, monkeypatch):
        # The unit of work between the socket and the AD is one socket
        # read: the reader stamps every delivery the read completed, then
        # steps them through their CEs and the merge, _STEPS_PER_TURN at a
        # time with a settle and a turn for the loop's other tasks after
        # each slice, and only then reads again.
        # TCP decides how the stream splits into reads, so the events are
        # recorded in order and compared rather than derived from bytes.
        import types

        import repro.service.server as server
        from repro.core.evaluator import ConditionEvaluator
        from repro.service.consumers import StampMerge

        events: list[str] = []
        step, settle = ConditionEvaluator.step, StampMerge.settle
        run_pipeline = MonitorService._run_pipeline
        monotonic_ns = server.time.monotonic_ns

        def counting_clock():
            events.append("stamp")
            return monotonic_ns()

        def counting_step(self, update):
            events.append("step")
            return step(self, update)

        def counting_settle(self):
            events.append("settle")
            return settle(self)

        async def counting_pipeline(self, reader):
            read = reader.read

            async def counting_read(n):
                data = await read(n)
                if data:
                    events.append("read")
                return data

            async def ticker():
                # Marks each turn another task of the loop gets.
                while True:
                    if events[-1:] != ["turn"]:
                        events.append("turn")
                    await asyncio.sleep(0)

            reader.read = counting_read  # this connection's server side only
            turns = asyncio.create_task(ticker())
            try:
                return await run_pipeline(self, reader)
            finally:
                turns.cancel()

        def no_queue(name):
            # Raised in the server, this comes back as an error frame.
            def refuse(self, *args):
                raise AssertionError(f"the server called BoundedQueue.{name}")
            return refuse

        for name in ("put", "put_many", "get", "get_many", "close"):
            monkeypatch.setattr(BoundedQueue, name, no_queue(name))
        monkeypatch.setattr(
            server, "time", types.SimpleNamespace(monotonic_ns=counting_clock)
        )
        monkeypatch.setattr(ConditionEvaluator, "step", counting_step)
        monkeypatch.setattr(StampMerge, "settle", counting_settle)
        monkeypatch.setattr(MonitorService, "_run_pipeline", counting_pipeline)
        result = AsyncioServiceRuntime().execute(big_feed)

        # Between two slices of one read, another task got a turn.
        turns = "".join(
            {"read": "r", "stamp": "t", "step": "s", "settle": "S", "turn": "y"}[
                event
            ]
            for event in events
        )
        assert re.search(r"Sy+s", turns)
        assert not re.search(r"Ss", turns)
        # (read+ stamp* (step+ settle)*)+: every record of a read is
        # stamped before its first step, and no read arrives mid-steps.
        trace = turns.replace("y", "")
        assert re.fullmatch(r"(r+t*(s+S)*)+", trace), trace[:200]
        per_read = []
        for stamps, slices in re.findall(r"r+(t*)((?:s+S)*)", trace):
            sizes = [len(steps) for steps in re.findall(r"(s+)S", slices)]
            assert sum(sizes) == len(stamps)
            # Full slices but the last, which is never empty.
            assert all(size == server._STEPS_PER_TURN for size in sizes[:-1])
            assert all(0 < size <= server._STEPS_PER_TURN for size in sizes)
            per_read.append(len(stamps))
        assert sum(per_read) == len(big_feed.deliveries)
        assert max(per_read) <= records_per_read(big_feed)
        # ... and a read is worth many deliveries, or nothing was gained.
        assert len([n for n in per_read if n]) * 10 <= len(big_feed.deliveries)
        assert result.counters["service/peak/read"] == max(per_read)
        assert result.displayed_bytes() == (
            DirectRuntime().execute(big_feed).displayed_bytes()
        )


# -- bounded queue ------------------------------------------------------------

class TestBoundedQueue:
    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_put_get_fifo(self):
        async def scenario():
            queue = BoundedQueue("q", 8)
            for i in range(5):
                await queue.put(i)
            return [await queue.get() for _ in range(5)]

        assert self.run(scenario()) == [0, 1, 2, 3, 4]

    def test_put_blocks_at_capacity(self):
        async def scenario():
            queue = BoundedQueue("q", 2)
            await queue.put(1)
            await queue.put(2)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(queue.put(3), timeout=0.05)
            return queue.stats.blocked_puts

        assert self.run(scenario()) == 1

    def test_throttle_episode_with_hysteresis(self):
        async def scenario():
            queue = BoundedQueue("q", 4, high_water=4)
            for i in range(4):
                await queue.put(i)
            assert queue.throttled
            await queue.get()  # 3 left — still above low-water (2)
            assert queue.throttled
            await queue.get()  # 2 left — at low-water, clears
            assert not queue.throttled
            for _ in range(2):
                await queue.get()
            await queue.put("again")
            return queue.stats.throttle_episodes

        # Dipping below low-water then refilling opens a second episode
        # only when high-water is crossed again — one put of one item
        # does not re-trigger.
        assert self.run(scenario()) == 1

    def test_close_sentinel_not_counted(self):
        async def scenario():
            queue = BoundedQueue("q", 4)
            await queue.put("item")
            await queue.close()
            first = await queue.get()
            second = await queue.get()
            return first, second, queue.stats

        first, second, stats = self.run(scenario())
        assert first == "item"
        assert second is CLOSE
        assert (stats.puts, stats.gets) == (1, 1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue("q", 0)
        with pytest.raises(ValueError):
            BoundedQueue("q", 4, high_water=5)

    def test_stats_counters_elide_zeros(self):
        stats = BoundedQueue("q", 4).stats
        assert stats.as_counters("q") == {}
