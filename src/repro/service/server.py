"""The online monitoring service: sockets, one step per read, drain.

:class:`MonitorService` listens on a local TCP socket and speaks the
framed feed protocol (:mod:`repro.service.feed`).  Each connection is
one task, and each socket read is one step of it::

    socket read ─▶ decode and stamp every delivery record it completed
                └▶ per slice of them: CE step → stamp merge → AD,
                   then render displayed lines, fold verdicts ─▶ yield
                └▶ next read

Before the first delivery come the ``hello`` (canonical JSON: the
:class:`~repro.engine.spec.TrialSpec`) and one binary stamp record per
CE, which the reader takes over as many reads as they span.  It checks
the stream by the rules :func:`~repro.service.feed.loads_feed` reads a
feed file by, so the two reject the same bytes with the same error.

Then, read by read, the reader first decodes every delivery record the
read completed, stamping each as it is decoded (the start of its
update→display latency), so a record's latency includes its wait behind
the earlier records of its read.  Next, ``_STEPS_PER_TURN`` records at
a time, it runs each target CE's
:meth:`~repro.core.evaluator.ConditionEvaluator.step`, and hands any
raised alert to the connection's
:class:`~repro.service.consumers.StampMerge` as the identity key the
step returned, with its line inputs (the CE's windows and name) as the
payload.  The merge releases it in recorded stamp order to
:meth:`~repro.displayers.base.ADAlgorithm.decide` and reads the latency
clock; after each slice the reader renders the lines the slice
displayed straight from their windows
(:func:`~repro.core.serialization.canonical_line`), folds the slice's
updates and displayed keys into the verdicts and gives the loop's other
connections a turn.  No :class:`~repro.core.alert.Alert` is built for
a single-variable feed; a multi-variable one builds an alert for each
displayed key only, at ``end``.
After the read's last slice it reads again.  There is no queue between
a delivery and its display, and flow control is TCP's own: a server
busy with one read does not read the next, so the client's sends stall.
What the server holds beside the run itself is at most one
``_READ_CHUNK`` of delivery records and the reorder buffer.

Shutdown is a graceful drain, not an abort: the client's ``end`` message
ends the read loop once every delivery before it is stepped, and the
handler replies with a single ``result`` record — the displayed lines as
UTF-8 text behind a JSON header of verdicts, counters and latency
percentiles — once the merge has released every stamped alert.
:meth:`MonitorService.stop` likewise waits for in-flight connections
before closing the listener.

Little is left to do at ``end``.  Each displayed alert's line is
rendered after the read that displayed it, and a single-variable
condition's verdicts are folded (:class:`~repro.props.fold.VerdictFold`)
read by read, so ``end`` only flushes the merged run above the CEs'
watermark, and computes only what the result carries: the verdicts
without their diagnostic sets, and the three latency ranks from one
sort.  A multi-variable condition is still decided from the whole runs
and its displayed alerts once the feed is in.

A connection's payload graph (updates, keys, windows) lives until
its reply is out and none of it is cyclic, so the cyclic collector is
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

from repro.accel import collector_paused, percentiles
from repro.core.serialization import alert_from_json, canonical_line
from repro.core.wire import FrameDecoder
from repro.observability.tracer import CountersTracer
from repro.service.consumers import Pace, StampMerge
from repro.service.feed import (
    FeedPreamble,
    UpdateFeed,
    check_end,
    check_targets,
    decode_delivery,
    decode_message,
    encode_message,
    feed_messages,
)
from repro.service.runtime import FeedResult

__all__ = [
    "ServiceConfig",
    "ServiceError",
    "MonitorService",
    "execute_feed",
    "AsyncioServiceRuntime",
]

_READ_CHUNK = 1 << 16
#: Deliveries a reader steps between two yields to the event loop.
_STEPS_PER_TURN = 256


class ServiceError(RuntimeError):
    """The service reported a failure for this feed."""


@dataclass(frozen=True)
class ServiceConfig:
    """Listener address."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral; the bound port is on ``MonitorService.port``.
    port: int = 0


class MonitorService:
    """One listening service instance (use as ``await start()`` … ``stop()``)."""

    def __init__(
        self, config: ServiceConfig | None = None, *, pace: Pace | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        #: Test hook awaited before every CE step.
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
                        encode_message({
                            "type": "error",
                            "error": f"{type(exc).__name__}: {exc}",
                        })
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
        from repro.core.evaluator import ConditionEvaluator, alert_from_key
        from repro.props.fold import VerdictFold
        from repro.props.report import evaluate_run

        decoder = FrameDecoder()

        async def read_frames() -> list[bytes]:
            """The payloads of the next read that completes a frame."""
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    check_end([], 0, decoder)  # the bytes stopped: raises
                payloads = decoder.feed(data)
                if payloads:
                    return payloads

        preamble = FeedPreamble()
        while (payloads := preamble.take(await read_frames())) is None:
            pass
        spec, stamps = preamble.spec, preamble.stamps
        condition = spec.resolve_scenario().make_condition()
        condname = condition.name
        algorithm = make_ad(spec.algorithm, condition)

        replicas = len(stamps)
        evaluators = [
            ConditionEvaluator(condition, source=f"CE{i + 1}")
            for i in range(replicas)
        ]
        steps = [evaluator.step for evaluator in evaluators]
        windows = [evaluator.windows for evaluator in evaluators]
        sources = [evaluator.source for evaluator in evaluators]
        fold = (
            VerdictFold(condition, replicas)
            if len(condition.variables) == 1
            else None
        )
        # Filed per raised alert: its key, and as payload what its line
        # and, on a multi-variable feed, its Alert need.
        merge = StampMerge(algorithm.decide, stamps)
        raised = merge.raised
        lines = merge.result.lines
        #: Multi-variable feeds: every displayed payload, for the Alerts
        #: the verdicts are decided on at the end.
        displayed: list[tuple] = []
        clock = time.monotonic_ns
        pace = self.pace
        #: Per CE, the updates of the current slice, and how many so far.
        received: list[list] = [[] for _ in range(replicas)]
        delivered = [0] * replicas
        peak_held = 0
        # The unit of work is one socket read: every delivery it completed
        # is stepped through its CE and the merge before the next read, so
        # the reader holds at most one _READ_CHUNK of delivery records.
        while True:
            # Every record the read completed is decoded and stamped before
            # the first is stepped, so a record's latency includes its wait
            # behind the earlier records of its read.
            batch = []
            for payload in payloads:
                delivery = decode_delivery(payload)
                if delivery is None:
                    break
                batch.append((*delivery, clock()))
            check_targets(batch, replicas)
            held = len(batch)
            if held > peak_held:
                peak_held = held
            # Stepped _STEPS_PER_TURN at a time, so the loop's other
            # connections get a turn between two slices of a long read.
            for first in range(0, held, _STEPS_PER_TURN):
                if first:
                    await asyncio.sleep(0)
                for ce_index, update, ingest_ns in batch[
                    first:first + _STEPS_PER_TURN
                ]:
                    if pace is not None:
                        await pace(ce_index, update)
                    key = steps[ce_index](update)
                    received[ce_index].append(update)
                    if key is not None:
                        raised(
                            ce_index, key,
                            (key, windows[ce_index](), sources[ce_index]),
                            ingest_ns,
                        )
                # Past every latency clock of the slice (not of the read's
                # later slices): count, fold, render.
                for ce_index, updates in enumerate(received):
                    if updates:
                        delivered[ce_index] += len(updates)
                        if fold is not None:
                            fold.receive(ce_index, updates)
                        updates.clear()
                shown = merge.settle()
                for _, runs, source in shown:
                    lines.append(canonical_line(condname, source, runs))
                if fold is not None:
                    fold.display([payload[0] for payload in shown])
                    fold.settle()
                else:
                    displayed += shown
            if held < len(payloads):
                check_end(payloads, held, decoder)
                break
            payloads = await read_frames()

        result = merge.end()
        if fold is not None:
            report = fold.report()
        else:
            # The completeness grid walk reads every run whole.
            report = evaluate_run(
                condition,
                tuple(evaluator.received for evaluator in evaluators),
                [
                    alert_from_key(key, dict(runs), source)
                    for key, runs, source in displayed
                ],
            )
        tracer = CountersTracer()
        for ce_index in range(replicas):
            node = f"ce{ce_index + 1}"
            tracer.count("service", "deliver", node, n=delivered[ce_index])
            tracer.count("service", "alert", node, n=merge.raised_per_ce[ce_index])
        tracer.count("service", "peak", "read", n=peak_held)
        tracer.count("service", "drain", "pipeline")
        self.counters.merge(tracer)
        return {
            "displayed": result.lines,
            "verdicts": report.summary,
            "counters": tracer.as_dict(),
            "latency_ms": _latency_percentiles(result.display_latencies_ns),
            "peak_reorder": result.peak_reorder,
        }


def _latency_percentiles(latencies_ns: list[int]) -> dict[str, float]:
    if not latencies_ns:
        return {}
    p50, p99, top = percentiles(
        [ns / 1e6 for ns in latencies_ns], (50.0, 99.0, 100.0)
    )
    return {"p50": p50, "p99": p99, "max": top}


# -- client ------------------------------------------------------------------

async def execute_feed(
    feed: UpdateFeed, host: str, port: int, *, runtime_name: str = "asyncio"
) -> FeedResult:
    """Stream ``feed`` to a running service; await its result frame."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        # The feed file's bytes, in writes of _READ_CHUNK, one drain() each.
        stream = b"".join(map(encode_message, feed_messages(feed)))
        for start in range(0, len(stream), _READ_CHUNK):
            writer.write(stream[start:start + _READ_CHUNK])
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
    exercise the real socket/reader/merge/drain path, not a
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
