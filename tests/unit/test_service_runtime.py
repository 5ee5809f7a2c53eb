"""Unit tests for the service runtime: feeds, queues, drain, throttling."""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import struct
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.update import Update
from repro.core.wire import FrameDecoder, encode_frame, iter_frames
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


# -- feed artifact ------------------------------------------------------------

class TestFeed:
    def test_jsonl_round_trip(self, feed):
        assert loads_feed(feed.to_jsonl()) == feed

    def test_round_trip_is_fixpoint(self, feed):
        assert loads_feed(feed.to_jsonl()).to_jsonl() == feed.to_jsonl()

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
        tampered = feed.to_jsonl().replace("repro.feed/1", "repro.feed/9")
        with pytest.raises(FeedSchemaError, match="unsupported feed schema"):
            loads_feed(tampered)

    def test_empty_rejected(self):
        with pytest.raises(FeedSchemaError, match="empty"):
            loads_feed("")

    def test_header_spec_fields_are_checked(self, feed):
        # Feeds recorded while specs carried a shard ring.
        old = feed.to_jsonl().replace('"spec":{', '"spec":{"sharding":null,', 1)
        with pytest.raises(FeedSchemaError, match="unknown field 'sharding'"):
            loads_feed(old)

    def test_stamps_count_alerts(self, feed):
        assert feed.total_alerts == sum(len(s) for s in feed.stamps)
        assert feed.total_alerts > 0

    def test_message_frame_round_trip(self, feed):
        stream = b"".join(encode_message(m) for m in feed_messages(feed))
        messages = [decode_message(p) for p in iter_frames(stream)]
        assert messages[0]["type"] == "hello"
        assert messages[-1]["type"] == "end"
        assert len(messages) == len(feed.deliveries) + 2

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
        value=st.floats(),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, ce, var, seqno, value):
        message = delivery(ce, var, seqno, value)
        decoded = decode_message(payload_of(encode_message(message)))
        # Bitwise on the value: NaN payloads and the sign of zero survive.
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
            b"\x02" + bytes(18) + b"x",  # unknown tag
            b"not json",
            b"[1, 2]",
            json.dumps(delivery()).encode(),  # the retired JSON encoding
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


# -- asyncio service ----------------------------------------------------------

class TestAsyncioService:
    def test_service_matches_direct(self, feed):
        service = AsyncioServiceRuntime().execute(feed)
        direct = DirectRuntime().execute(feed)
        assert service.displayed_bytes() == direct.displayed_bytes()
        assert service.verdicts == direct.verdicts

    def test_graceful_drain_flushes_all_inflight_alerts(self, feed):
        # Tiny queues + an artificially slow CE: at the moment the client's
        # end message arrives, alerts are still queued at every stage.  The
        # drain must flush them all — the displayed count equals the
        # reference run's, nothing is cut off at shutdown.
        async def slow(ce_index, update):
            await asyncio.sleep(0.002)

        runtime = AsyncioServiceRuntime(
            ServiceConfig(queue_capacity=2), pace=slow
        )
        result = runtime.execute(feed)
        reference = DirectRuntime().execute(feed)
        assert len(result.displayed) == len(reference.displayed)
        assert result.displayed_bytes() == reference.displayed_bytes()

    def test_slow_consumer_activates_throttling(self, feed):
        # With capacity 4 and ~50 deliveries racing a paced CE, the ingest
        # or per-CE queues must hit their high-water mark and report it.
        async def slow(ce_index, update):
            await asyncio.sleep(0.001)

        runtime = AsyncioServiceRuntime(
            ServiceConfig(queue_capacity=4), pace=slow
        )
        result = runtime.execute(feed)
        throttles = {
            key: count
            for key, count in result.counters.items()
            if key.startswith("service/throttle-on/")
        }
        assert throttles, f"no throttling observed in {sorted(result.counters)}"
        blocked = sum(
            count
            for key, count in result.counters.items()
            if key.startswith("service/blocked-put/")
        )
        assert blocked > 0

    def test_unthrottled_run_reports_no_backpressure(self, feed):
        result = AsyncioServiceRuntime(
            ServiceConfig(queue_capacity=4096)
        ).execute(feed)
        assert not any(
            key.startswith("service/throttle-on/") for key in result.counters
        )

    def test_latency_percentiles_reported(self, feed):
        result = AsyncioServiceRuntime().execute(feed)
        assert set(result.latency_ms) == {"p50", "p99", "max"}
        assert 0 < result.latency_ms["p50"] <= result.latency_ms["p99"]
        assert result.latency_ms["p99"] <= result.latency_ms["max"]

    def test_counters_cover_every_stage(self, feed):
        result = AsyncioServiceRuntime().execute(feed)
        gets = {
            key.rsplit("/", 1)[1]
            for key in result.counters
            if key.startswith("service/get/")
        }
        assert {"ingest", "alerts"} <= gets
        assert any(name.startswith("ce") for name in gets)
        assert result.counters["service/get/ingest"] == len(feed.deliveries)
        assert result.counters["service/get/alerts"] == feed.total_alerts

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
        assert (
            service.counters.node_total("service", "get", "ingest")
            == 2 * len(feed.deliveries)
        )

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

async def converse(service: MonitorService, *writes: bytes) -> dict:
    """Send raw bytes to a live service; return its one reply message."""
    reader, writer = await asyncio.open_connection(service.host, service.port)
    try:
        for data in writes:
            writer.write(data)
            await writer.drain()
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


class TestHostileStreams:
    def test_malformed_records_end_in_an_error_frame(self, feed):
        frames = [encode_message(m) for m in feed_messages(feed)]
        hello, end = frames[0], frames[-1]
        record = payload_of(frames[1])
        hostile = [record[:cut] for cut in range(len(record))]  # strict prefixes
        hostile += [
            b"\x02" + record[1:],  # unknown tag
            record[:19] + b"\xff\xfe",  # varname is not UTF-8
            json.dumps(delivery()).encode(),  # JSON delivery mid-feed
        ]

        async def scenario(service):
            replies = []
            for payload in hostile:
                # A valid delivery first, so the stages are mid-stream when
                # the bad record arrives.
                replies.append(await converse(
                    service, hello + frames[1] + encode_frame(payload) + end
                ))
            return replies

        for payload, reply in zip(hostile, with_service(scenario)):
            assert reply["type"] == "error", payload
            assert reply["error"].startswith("FeedSchemaError"), (payload, reply)

    def test_out_of_range_ce_index_is_a_mismatch_not_a_hang(self, feed):
        frames = [encode_message(m) for m in feed_messages(feed)]
        stray = encode_message(delivery(ce=feed.replication))

        async def scenario(service):
            return await converse(
                service, b"".join(frames[:5]) + stray + b"".join(frames[5:])
            )

        reply = with_service(scenario)
        assert reply["type"] == "error"
        assert reply["error"].startswith("FeedMismatchError: delivery targets CE")

    def test_frames_after_end_are_an_error_not_a_silent_drop(self, feed):
        frames = [encode_message(m) for m in feed_messages(feed)]
        complete = b"".join(frames)

        async def scenario(service):
            return [
                await converse(service, complete),
                await converse(service, complete + frames[1] + frames[2]),
                await converse(service, complete + frames[1][:3]),
            ]

        clean, trailing_frames, trailing_bytes = with_service(scenario)
        assert clean["type"] == "result"
        assert trailing_frames["type"] == "error"
        assert trailing_frames["error"].startswith("FeedSchemaError: 2 frames")
        assert trailing_bytes["type"] == "error"
        assert "3 bytes of a partial frame" in trailing_bytes["error"]
        assert trailing_bytes["error"].startswith("FeedSchemaError: 0 frames")

    @pytest.mark.parametrize(
        "tamper, named",
        [
            pytest.param(lambda h: h.pop("spec"), "no 'spec' field", id="no-spec"),
            pytest.param(lambda h: h.pop("stamps"), "no 'stamps' field", id="no-stamps"),
            pytest.param(
                lambda h: h["spec"].update(bogus=1), "unknown field 'bogus'",
                id="unknown-spec-field",
            ),
            pytest.param(
                lambda h: h.update(stamps=[[1.0], []]), "field 'stamps'",
                id="stamp-not-a-pair",
            ),
            pytest.param(
                # The merge releases a CE's alerts in its stamps' order.
                lambda h: h["stamps"][0].reverse(),
                "field 'stamps' of CE1 is not in (time, index) order",
                id="stamps-out-of-order",
            ),
            pytest.param(
                lambda h: h["spec"].update(row="nope"), "field 'row' is 'nope'",
                id="unknown-row",
            ),
            pytest.param(
                lambda h: h["spec"].update(algorithm="AD-9"),
                "field 'algorithm' is 'AD-9'",
                id="unknown-algorithm",
            ),
            pytest.param(
                lambda h: h["spec"].pop("seed"), "no 'seed' field",
                id="missing-spec-field",
            ),
            pytest.param(
                lambda h: h["spec"].update(matrix=["single"]), "field 'matrix'",
                id="unhashable-matrix",
            ),
            pytest.param(
                lambda h: h["spec"].update(faults={"bogus": 1}),
                "field 'spec' is malformed",
                id="nested-config",
            ),
            pytest.param(
                # JSON's ``Infinity``: a run with it would divide by zero.
                lambda h: h["spec"].update(
                    faults={"ce_crash_rate": 0.01, "ce_mean_repair": float("inf")}
                ),
                "ce_mean_repair must be finite",
                id="non-finite-knob",
            ),
        ],
    )
    def test_a_malformed_hello_is_a_named_error(self, feed, tamper, named):
        hello, *rest = feed_messages(feed)
        hello = json.loads(json.dumps(hello))
        tamper(hello)
        stream = b"".join(encode_message(m) for m in [hello, *rest])

        reply = with_service(lambda service: converse(service, stream))
        assert reply["type"] == "error"
        assert reply["error"].startswith("FeedSchemaError: hello "), reply
        assert named in reply["error"], reply


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


class TestReaderBatches:
    def test_one_put_many_per_read_never_a_put_per_delivery(self, monkeypatch):
        # The unit of work between the socket and the AD is one socket
        # read.  TCP decides how the stream splits into reads, so the two
        # are counted and compared rather than derived from byte counts.
        big = record_feed(dataclasses.replace(SPEC, n_updates=1600))
        assert len(big.deliveries) >= 2000
        reads: list[int] = []
        bulk_puts: list[int] = []
        single_puts: list[object] = []
        put_many, put = BoundedQueue.put_many, BoundedQueue.put
        run_pipeline = MonitorService._run_pipeline

        async def counting_put_many(self, batch):
            if self.name == "ingest":
                bulk_puts.append(len(batch))
            await put_many(self, batch)

        async def counting_put(self, item):
            if self.name == "ingest":
                single_puts.append(item)
            await put(self, item)

        async def counting_pipeline(self, reader):
            read = reader.read

            async def counting_read(n):
                data = await read(n)
                if data:
                    reads.append(len(data))
                return data

            reader.read = counting_read  # this connection's server side only
            return await run_pipeline(self, reader)

        monkeypatch.setattr(BoundedQueue, "put_many", counting_put_many)
        monkeypatch.setattr(BoundedQueue, "put", counting_put)
        monkeypatch.setattr(MonitorService, "_run_pipeline", counting_pipeline)
        result = AsyncioServiceRuntime().execute(big)

        assert not single_puts
        assert 1 <= len(bulk_puts) <= len(reads)
        assert sum(bulk_puts) == len(big.deliveries)
        assert result.counters["service/put/ingest"] == len(big.deliveries)
        # ... and a read is worth many deliveries, or nothing was gained.
        assert len(bulk_puts) * 10 <= len(big.deliveries)
        assert result.displayed_bytes() == DirectRuntime().execute(big).displayed_bytes()


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
