"""The online monitoring service: sockets, tasks, queues, drain.

:class:`MonitorService` listens on a local TCP socket and speaks the
framed feed protocol (:mod:`repro.service.feed`).  Each connection gets
its own pipeline::

    socket reader ──ingest──▶ router ──per-CE──▶ CE replicas
                                                     │ (shared, stamped)
                                 result frame ◀── AD merge

Every hop is a :class:`~repro.service.queues.BoundedQueue`; when a
downstream stage lags, ``put`` suspends and the stall reaches the socket
reader, which simply stops reading — TCP flow control then slows the
client.  That is the whole load-leveling story: bounded memory, nothing
dropped, producers paced to the slowest consumer.

Shutdown is a graceful drain, not an abort: the client's ``end`` message
closes the ingest queue, the CLOSE sentinel propagates stage by stage
(router → CE queues → shared alert queue), each stage exits only after
consuming everything enqueued before its close, and the handler replies
with a single ``result`` frame — displayed alerts, verdicts, counters,
latency percentiles — once the merge task has released every stamped
alert.  :meth:`MonitorService.stop` likewise waits for in-flight
connections before closing the listener.

Little is left to do at ``end``.  Each displayed alert's line is
rendered by the merge batch that displayed it, and a single-variable
condition's verdicts are folded (:class:`~repro.props.fold.VerdictFold`)
batch by batch as the CEs receive and the AD displays, so ``end`` only
flushes the merged run above the CEs' watermark.  A multi-variable
condition is still decided from the whole runs once the feed is in.

A connection's payload graph (updates, snapshots, alerts and the
``(ce, alert, ingest_ns)`` tuples between CE and merge) lives until its
reply is out and none of it is cyclic, so the cyclic collector is
paused while any pipeline is live
(:func:`~repro.accel.collector_paused`) and run once per connection at
close, after the reply is on the wire — which is also what reclaims the
few cycles asyncio itself leaves behind per connection.

:class:`AsyncioServiceRuntime` wraps the whole client/server round trip
behind the :class:`~repro.service.runtime.Runtime` interface so the
conformance harness can diff it against the simulator kernels.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.accel import collector_paused
from repro.core.serialization import alert_from_json
from repro.core.wire import FrameDecoder
from repro.observability.tracer import CountersTracer
from repro.service.consumers import Pace, ad_merge, ce_replica, route_updates
from repro.service.feed import (
    FeedSchemaError,
    UpdateFeed,
    decode_delivery,
    decode_hello,
    decode_message,
    encode_message,
    feed_messages,
)
from repro.service.queues import BoundedQueue
from repro.service.runtime import FeedResult

__all__ = [
    "ServiceConfig",
    "ServiceError",
    "MonitorService",
    "execute_feed",
    "AsyncioServiceRuntime",
]

_READ_CHUNK = 1 << 16


class ServiceError(RuntimeError):
    """The service reported a failure for this feed."""


@dataclass(frozen=True)
class ServiceConfig:
    """Listener address and pipeline sizing."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral; the bound port is on ``MonitorService.port``.
    port: int = 0
    #: Capacity of every inter-stage queue; each reports throttling at
    #: ¾ of it, so load-leveling is observable before the hard stall.
    queue_capacity: int = 64


class MonitorService:
    """One listening service instance (use as ``await start()`` … ``stop()``)."""

    def __init__(
        self, config: ServiceConfig | None = None, *, pace: Pace | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        #: Test hook threaded through to every CE replica.
        self.pace = pace
        #: Server-lifetime counter aggregate (per-connection tracers merge
        #: in at drain).
        self.counters = CountersTracer()
        self.connections_handled = 0
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()
        #: Set by every handler as it finishes; ``serve_until`` sleeps on it.
        self._connection_closed = asyncio.Event()
        #: Pipelines between their start and their drained reply, and the
        #: one collector pause they share (connections do not nest, so
        #: each cannot hold its own: the first to finish would end it).
        self._live_pipelines = 0
        self._collector_pause = ExitStack()

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        """Graceful drain: finish in-flight connections, then stop listening."""
        if self._server is None:
            return
        self._server.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def serve_until(self, *, once: bool = False) -> None:
        """Run until cancelled, or (``once``) until one connection finishes."""
        if self._server is None:
            await self.start()
        self._connection_closed.clear()
        try:
            if once:
                # stop() then waits out whatever else is in flight.
                await self._connection_closed.wait()
            else:
                await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    # -- per-connection pipeline ---------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._connection_done)
        try:
            with self._pipeline_live():
                try:
                    result = await self._run_pipeline(reader)
                    writer.write(encode_message({"type": "result", **result}))
                except Exception as exc:  # reported to the client, not fatal
                    writer.write(
                        encode_message({"type": "error", "error": _describe(exc)})
                    )
                await writer.drain()
        finally:
            self.connections_handled += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    def _connection_done(self, task: asyncio.Task) -> None:
        # The reply is on the wire, so nobody waits for this collection,
        # and the handler's frame is gone, so it reaches the one cycle a
        # connection leaves (asyncio's transport and its read callback).
        gc.collect()
        self._handlers.discard(task)
        self._connection_closed.set()

    @contextmanager
    def _pipeline_live(self) -> Iterator[None]:
        """Hold the service's collector pause while this pipeline runs."""
        if not self._live_pipelines:
            self._collector_pause.enter_context(collector_paused())
        self._live_pipelines += 1
        try:
            yield
        finally:
            self._live_pipelines -= 1
            if not self._live_pipelines:
                self._collector_pause.close()

    async def _run_pipeline(self, reader: asyncio.StreamReader) -> dict[str, Any]:
        from repro.displayers.registry import make_ad
        from repro.core.evaluator import ConditionEvaluator
        from repro.props.fold import VerdictFold
        from repro.props.report import evaluate_run

        decoder = FrameDecoder()

        async def read_frames() -> list[bytes]:
            """The payloads of the next read that completes a frame."""
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    decoder.close()  # raises FrameError if mid-frame
                    raise FeedSchemaError(
                        "connection closed before the feed's end message"
                    )
                payloads = decoder.feed(data)
                if payloads:
                    return payloads

        payloads = await read_frames()
        spec, stamps = decode_hello(decode_message(payloads.pop(0)))
        condition = spec.resolve_scenario().make_condition()
        algorithm = make_ad(spec.algorithm, condition)

        tracer = CountersTracer()
        capacity = self.config.queue_capacity
        high_water = max(1, (capacity * 3) // 4)

        def queue(name: str) -> BoundedQueue:
            return BoundedQueue(
                name, capacity, high_water=high_water, tracer=tracer
            )

        ingest = queue("ingest")
        ce_queues = [queue(f"ce{i + 1}") for i in range(len(stamps))]
        alert_queue = queue("alerts")
        evaluators = [
            ConditionEvaluator(condition, source=f"CE{i + 1}")
            for i in range(len(stamps))
        ]
        fold = (
            VerdictFold(condition, len(stamps))
            if len(condition.variables) == 1
            else None
        )

        async with asyncio.TaskGroup() as group:
            group.create_task(route_updates(ingest, ce_queues))
            for index, evaluator in enumerate(evaluators):
                group.create_task(
                    ce_replica(
                        index,
                        evaluator,
                        stamps[index],
                        ce_queues[index],
                        alert_queue,
                        pace=self.pace,
                        fold=fold,
                    )
                )
            merge_task = group.create_task(
                ad_merge(algorithm, stamps, alert_queue, fold=fold)
            )
            # The unit of work is one socket read: every delivery it
            # completed goes to the ingest queue in one put_many, each
            # stamped as its own record is decoded.  What the reader holds
            # beside the queues is therefore at most one _READ_CHUNK of
            # decoded deliveries — it does not read again until the queue
            # took them all.
            while True:
                batch = []
                for payload in payloads:
                    delivery = decode_delivery(payload)
                    if delivery is None:
                        break
                    batch.append((*delivery, time.monotonic_ns()))
                if batch:
                    await ingest.put_many(batch)
                if len(batch) < len(payloads):
                    message = decode_message(payloads[len(batch)])
                    if message["type"] != "end":
                        raise FeedSchemaError(
                            f"unexpected message {message['type']!r} mid-feed"
                        )
                    trailing = len(payloads) - len(batch) - 1
                    if trailing or decoder.buffered:
                        raise FeedSchemaError(
                            f"{trailing} frames and {decoder.buffered} bytes "
                            "of a partial frame follow the end message"
                        )
                    await ingest.close()
                    break
                payloads = await read_frames()

        merge = merge_task.result()
        if fold is not None:
            report = fold.report()
        else:
            # The completeness grid walk reads every run whole.
            report = evaluate_run(
                condition,
                tuple(evaluator.received for evaluator in evaluators),
                algorithm.output,
            )
        for stage_queue in [ingest, *ce_queues, alert_queue]:
            tracer.merge(stage_queue.stats.as_counters(stage_queue.name))
        tracer.emit(0.0, "service", "drain", "pipeline")
        self.counters.merge(tracer)
        return {
            "displayed": merge.lines,
            "verdicts": report.summary,
            "counters": tracer.as_dict(),
            "latency_ms": _latency_percentiles(merge.display_latencies_ns),
            "peak_reorder": merge.peak_reorder,
        }


def _describe(exc: BaseException) -> str:
    """Flatten TaskGroup exception groups to their first leaf message."""
    if isinstance(exc, BaseExceptionGroup):
        leaf = exc.exceptions[0]
        return _describe(leaf)
    return f"{type(exc).__name__}: {exc}"


def _latency_percentiles(latencies_ns: list[int]) -> dict[str, float]:
    if not latencies_ns:
        return {}
    from repro.accel import percentile

    millis = [ns / 1e6 for ns in latencies_ns]
    return {
        "p50": percentile(millis, 50.0),
        "p99": percentile(millis, 99.0),
        "max": max(millis),
    }


# -- client ------------------------------------------------------------------

async def execute_feed(
    feed: UpdateFeed, host: str, port: int, *, runtime_name: str = "asyncio"
) -> FeedResult:
    """Stream ``feed`` to a running service; await its result frame."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        # Frames joined into writes of at most _READ_CHUNK bytes (a larger
        # frame goes alone), one drain() each.
        frames: list[bytes] = []
        size = 0
        for message in feed_messages(feed):
            frame = encode_message(message)
            if frames and size + len(frame) > _READ_CHUNK:
                writer.write(b"".join(frames))
                await writer.drain()
                frames.clear()
                size = 0
            frames.append(frame)
            size += len(frame)
        writer.write(b"".join(frames))
        await writer.drain()
        decoder = FrameDecoder()
        payloads: list[bytes] = []
        while not payloads:
            data = await reader.read(_READ_CHUNK)
            if not data:
                decoder.close()
                raise ServiceError("service closed the connection silently")
            payloads.extend(decoder.feed(data))
        reply = decode_message(payloads[0])
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
    if reply["type"] == "error":
        raise ServiceError(reply["error"])
    if reply["type"] != "result":
        raise ServiceError(f"unexpected reply {reply['type']!r}")
    return FeedResult(
        runtime=runtime_name,
        displayed=tuple(
            alert_from_json(json.loads(line)) for line in reply["displayed"]
        ),
        verdicts=dict(reply["verdicts"]),
        counters=dict(reply.get("counters", {})),
        latency_ms=dict(reply.get("latency_ms", {})),
    )


class AsyncioServiceRuntime:
    """The full socket round trip as a :class:`Runtime`.

    Starts an ephemeral-port service, streams the feed through it as a
    client, and returns the service's result — so conformance checks
    exercise the real reader/router/replica/merge/drain path, not a
    shortcut.
    """

    def __init__(
        self, config: ServiceConfig | None = None, *, pace: Pace | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.pace = pace
        self.name = "asyncio"

    def execute(self, feed: UpdateFeed) -> FeedResult:
        return asyncio.run(self.execute_async(feed))

    async def execute_async(self, feed: UpdateFeed) -> FeedResult:
        service = MonitorService(self.config, pace=self.pace)
        await service.start()
        try:
            return await execute_feed(
                feed, service.host, service.port, runtime_name=self.name
            )
        finally:
            await service.stop()
