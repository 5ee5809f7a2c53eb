"""``service-stream``: one recorded feed over real TCP to ``repro serve``.

The server is ``python -m repro serve --port 0 --once`` in its own process,
pinned to the measured vCPU; this process is the load generator, pinned to
the other one.  Two phases alternate until the window is over, each
against a fresh server:

* **blast** — closed loop, one connection, the whole feed written as fast
  as ``drain()`` allows; round trip = first byte written → result frame
  decoded, verdict tail included.
* **paced** — open loop at a fixed delivery rate in 1 ms ticks.  Each tick
  is timed from when it was *due*, so a stalled generator shows as send
  lag, and a run whose lag p99 exceeds 20 ms is the generator's failure:
  it is discarded, never scored.

The result frame must carry exactly the displayed lines and verdicts that
``DirectRuntime().execute(feed)`` produces; an ``error`` frame, a closed
socket or a missing reply fails every delivery of that run.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Any

from benchmarks.perf.harness import ROOT, Ctx, Sample, report_trace
from benchmarks.perf.hostspeed import pin
from benchmarks.perf.spans import Tracer

__all__ = ["ServiceStream"]

TICK_S = 0.001
MAX_SEND_LAG_MS = 20.0
_READ_CHUNK = 1 << 16
_REPLY_TIMEOUT_S = 120.0


@dataclass
class PhaseResult:
    phase: str
    deliveries: int
    #: First byte written → result frame decoded.
    start: float
    end: float
    #: ``end`` frame written (paced: the drain clock starts here).
    end_written: float
    reply: dict[str, Any] | None
    error: str | None = None
    send_lag_ms: tuple[float, ...] = ()
    achieved_rate: float = 0.0


class Server:
    """One ``repro serve --once`` child.

    It boots on any vCPU (booting is not what is measured, and several boot
    side by side) and is pinned to the measured one when its turn comes.
    """

    def __init__(self, boot_cpus: set[int]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--once"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.proc.pid, boot_cpus)
        self.stderr = ""
        self.port = 0

    def ready(self) -> "Server":
        """Block until the server has announced its port."""
        if not self.port:
            banner = self.proc.stdout.readline()
            try:
                self.port = int(banner.split()[-1].rsplit(":", 1)[1])
            except (IndexError, ValueError):
                self.stop()
                raise RuntimeError(f"repro serve did not announce a port: {banner!r}")
        return self

    def stop(self) -> None:
        """Wait for the server to exit on its own (``--once``); kill a
        straggler.  Idempotent."""
        if self.proc.returncode is not None:
            return
        try:
            _, self.stderr = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, self.stderr = self.proc.communicate()


async def _read_reply(reader: asyncio.StreamReader) -> dict[str, Any]:
    from repro.core.wire import FrameDecoder
    from repro.service.feed import decode_message

    decoder = FrameDecoder()
    while True:
        data = await asyncio.wait_for(reader.read(_READ_CHUNK), _REPLY_TIMEOUT_S)
        if not data:
            raise ConnectionError("service closed the connection without a reply")
        payloads = decoder.feed(data)
        if payloads:
            return decode_message(payloads[0])


class ServiceStream:
    name = "service-stream"
    #: Peak RSS of the largest child: the ``repro serve`` process.
    rss_who = resource.RUSAGE_CHILDREN

    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx
        self.ops = 0
        self.failed_ops = 0
        self.idle: list[Server] = []
        self.used: list[Server] = []
        self.results: list[PhaseResult] = []
        self.discarded = 0

    # -- set-up: record, pre-encode, start a server --------------------------
    def setup(self) -> None:
        from repro.engine.spec import TrialSpec
        from repro.service.feed import encode_message, feed_messages, record_feed

        server = self._boot()
        spec = TrialSpec(
            "single", "aggressive", "AD-3", self.ctx.seed,
            n_updates=self.ctx.sizes.feed_updates,
        )
        recorded = record_feed(spec)
        # ``record_feed`` dispatches round-robin by stream position, so the
        # lossier replica's stream runs ahead of the other by a random walk
        # that depends on the seed alone — and the AD merge's wait for the
        # straggler (0.5 to 2.3 ms of it, by seed) lands in the latency
        # median.  Broadcasting DMs deliver in source order; so does this
        # load generator.  Per-CE order, and with it every output byte,
        # is unchanged.
        self.feed = replace(recorded, deliveries=tuple(sorted(
            recorded.deliveries, key=lambda d: (d[1].seqno, d[0])
        )))
        self.frames = [encode_message(m) for m in feed_messages(self.feed)]
        self._park(server)

    def warm(self) -> None:
        from repro.core.serialization import alert_canonical_line
        from repro.service.runtime import DirectRuntime

        reference = DirectRuntime().execute(self.feed)
        self.reference_lines = [alert_canonical_line(a) for a in reference.displayed]
        self.reference_verdicts = reference.verdicts
        self.reference_bytes = reference.displayed_bytes()
        if self.ctx.corrupt_reference:
            self.reference_lines[0] = self.reference_lines[0][::-1]
        deliveries = len(self.feed.deliveries)
        self.ctx.note(
            f"feed {deliveries} deliveries, {self.feed.total_alerts} alerts, "
            f"{len(self.reference_lines)} displayed, {sum(map(len, self.frames))} bytes; "
            f"reference digest {hashlib.sha256(self.reference_bytes).hexdigest()}"
        )
        # hello | deliveries grouped per 1 ms tick | end
        body = self.frames[1:-1]
        per_tick = self.ctx.sizes.paced_rate * TICK_S
        self.ticks = []
        sent = 0
        tick = 0
        while sent < len(body):
            tick += 1
            upto = min(len(body), int(tick * per_tick))
            self.ticks.append(b"".join(body[sent:upto]))
            sent = upto
        # From here on this process only generates load.  Its heap (feed,
        # frames, reference) is long-lived: keep the collector off it, so a
        # full collection cannot stall the paced schedule for tens of ms.
        pin(0, self.ctx.client_cpu)
        gc.collect()
        gc.freeze()
        self._prestart(3 if self.ctx.trace else self.ctx.sizes.service_phases + 1)
        # The first connection of a run is ~25% slower than the rest
        # (client and loopback warm-up); it is spent here, unscored.
        self.run_phase("blast")
        self.results.clear()
        self.ops = self.failed_ops = 0

    # -- phases --------------------------------------------------------------
    def _boot(self) -> Server:
        return Server({self.ctx.client_cpu, self.ctx.measured_cpu})

    def _park(self, server: Server) -> None:
        """A booted server idles (it polls at 20 Hz) off the measured vCPU."""
        pin(server.ready().proc.pid, self.ctx.client_cpu)
        self.idle.append(server)

    def _prestart(self, wanted: int) -> None:
        """Top the idle pool up to ``wanted`` servers, booting side by side."""
        for server in [self._boot() for _ in range(wanted - len(self.idle))]:
            self._park(server)

    def _server(self) -> Server:
        server = self.idle.pop() if self.idle else self._boot().ready()
        pin(server.proc.pid, self.ctx.measured_cpu)
        self.used.append(server)
        return server

    async def _send_blast(self, writer: asyncio.StreamWriter, result: PhaseResult) -> None:
        result.start = time.perf_counter()
        for i in range(0, len(self.frames), 512):
            writer.write(b"".join(self.frames[i:i + 512]))
            await writer.drain()

    async def _send_paced(self, writer: asyncio.StreamWriter, result: PhaseResult) -> None:
        lags: list[float] = []
        writer.write(self.frames[0])
        await writer.drain()
        result.start = start = time.perf_counter()
        for index, payload in enumerate(self.ticks):
            due = start + index * TICK_S
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            # Open loop: never wait for the peer, only for the clock.
            writer.write(payload)
            lags.append(1e3 * (time.perf_counter() - due))
        result.achieved_rate = result.deliveries / (time.perf_counter() - start)
        result.send_lag_ms = tuple(lags)
        writer.write(self.frames[-1])
        await writer.drain()

    async def _connect_and_run(self, phase: str, port: int) -> PhaseResult:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        now = time.perf_counter()
        result = PhaseResult(phase, len(self.feed.deliveries), now, now, now, None)
        send = self._send_blast if phase == "blast" else self._send_paced
        try:
            await send(writer, result)
            result.end_written = time.perf_counter()
            result.reply = await _read_reply(reader)
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            result.end = time.perf_counter()
            writer.close()
        return result

    def run_phase(self, phase: str) -> PhaseResult | None:
        """One phase against a fresh server; ``None`` if the generator
        itself ran late and the run had to be thrown away."""
        server = self._server()
        result = asyncio.run(self._connect_and_run(phase, server.port))
        server.stop()
        if result.send_lag_ms and _p99(result.send_lag_ms) > MAX_SEND_LAG_MS:
            self.discarded += 1
            return None
        self.ops += result.deliveries
        if not self.correct(result):
            self.failed_ops += result.deliveries
        self.results.append(result)
        return result

    def correct(self, result: PhaseResult) -> bool:
        reply = result.reply
        if reply is None or reply.get("type") != "result":
            self.ctx.note(f"{result.phase} failed: {result.error or reply}")
            return False
        return (
            reply["displayed"] == self.reference_lines
            and reply["verdicts"] == self.reference_verdicts
        )

    def measure(self) -> None:
        index = 0
        minimum = 2 * self.ctx.sizes.min_passes
        while not self.ctx.expired() or index < minimum:
            self.run_phase("blast" if index % 2 == 0 else "paced")
            index += 1

    def verify(self) -> None:
        for phase in ("blast", "paced"):
            if not any(r.phase == phase for r in self.results):
                raise RuntimeError(f"no scored {phase} run ({self.discarded} discarded)")

    def close(self) -> None:
        # An unused server never saw its one connection; it would wait forever.
        for server in self.idle:
            server.proc.kill()
        for server in self.idle + self.used:
            server.stop()
        path = self.ctx.out_path("server-stderr.log")
        if path is not None:
            path.write_text("".join(
                f"--- server {i}\n{s.stderr}" for i, s in enumerate(self.used)
            ))

    # -- metrics -------------------------------------------------------------
    def _by_phase(self, phase: str) -> list[PhaseResult]:
        return [r for r in self.results if r.phase == phase and r.reply is not None
                and r.reply.get("type") == "result"]

    def end_to_end(self) -> dict[str, Sample]:
        speed = self.ctx.speed
        blasts = self._by_phase("blast")
        paced = self._by_phase("paced")
        if not blasts or not paced:
            raise RuntimeError("no successful blast/paced run to report")
        trips = [speed.effective(r.start, r.end) for r in blasts]
        self.ctx.note("blast raw_s " + " ".join(f"{r.end - r.start:.4f}" for r in blasts))
        self.ctx.note("blast eff_s " + " ".join(f"{s:.4f}" for s in trips))
        self.ctx.note("paced p50_ms raw " + " ".join(
            f"{r.reply['latency_ms']['p50']:.4f}" for r in paced))
        self.ctx.note("paced send_lag_p99_ms " + " ".join(
            f"{_p99(r.send_lag_ms):.3f}" for r in paced)
            + f" (discarded runs: {self.discarded})")
        rate = Sample.of(r.deliveries / s for r, s in zip(blasts, trips))
        self.ctx.note(f"harness.pass_spread_pct {rate.spread_pct():.2f}")
        return {
            "updates_per_s": rate,
            # One feed is one TrialSpec monitored end to end.
            "trials_per_s": Sample.of(1.0 / s for s in trips),
            "latency_p50_ms": Sample.of(
                r.reply["latency_ms"]["p50"] * speed.factor(r.start, r.end_written)
                for r in paced
            ),
            "drain_s": Sample.of(speed.effective(r.end_written, r.end) for r in paced),
        }

    # -- the traced run ------------------------------------------------------
    def trace(self) -> None:
        blast = self.run_phase("blast")
        paced = None
        for _ in range(3):  # a late generator is re-run, not scored
            paced = self.run_phase("paced")
            if paced is not None:
                break
        if blast is None or paced is None:
            raise RuntimeError("load generator could not keep its schedule")
        self.phase_results = (blast, paced)
        # The harness-side calls below are the measured program now.
        pin(0, self.ctx.measured_cpu)
        self.micro = self._codec_and_queue_costs()
        self.traced = self._traced_direct()

    def _codec_and_queue_costs(self) -> dict[str, tuple[float, float]]:
        """Intervals of the per-frame codec calls and the queue pipeline."""
        from repro.core.wire import FrameDecoder, encode_frame
        from repro.service.feed import decode_message, encode_message, feed_messages

        clock = time.perf_counter
        stream = b"".join(self.frames)
        out: dict[str, tuple[float, float]] = {}

        start = clock()
        decoder = FrameDecoder()
        payloads: list[bytes] = []
        for i in range(0, len(stream), _READ_CHUNK):
            payloads.extend(decoder.feed(stream[i:i + _READ_CHUNK]))
        out["core.wire.decode"] = (start, clock())
        if len(payloads) != len(self.frames):
            raise RuntimeError("frame decoder lost frames")

        start = clock()
        for payload in payloads:
            encode_frame(payload)
        out["core.wire.encode"] = (start, clock())

        messages = list(feed_messages(self.feed))
        start = clock()
        for message in messages:
            encode_message(message)
        out["service.feed.encode_message"] = (start, clock())

        start = clock()
        for payload in payloads:
            decode_message(payload)
        out["service.feed.decode_message"] = (start, clock())

        out["service.queues.hop"] = asyncio.run(self._queue_hops(len(payloads)))
        out["service.consumers.pipeline"] = asyncio.run(self._pipeline())
        return out

    async def _queue_hops(self, items: int) -> tuple[float, float]:
        from repro.service.queues import CLOSE, BoundedQueue

        queue = BoundedQueue("hop", 64)

        async def consume() -> None:
            while await queue.get() is not CLOSE:
                pass

        consumer = asyncio.create_task(consume())
        start = time.perf_counter()
        for item in range(items):
            await queue.put(item)
        await queue.close()
        await consumer
        return start, time.perf_counter()

    async def _pipeline(self) -> tuple[float, float]:
        """The server's stages on bounded queues, without the socket."""
        from repro.core.evaluator import ConditionEvaluator
        from repro.core.wire import encode_frame
        from repro.core.serialization import alert_canonical_line
        from repro.displayers.registry import make_ad
        from repro.service.consumers import ad_merge, ce_replica, route_updates
        from repro.service.queues import BoundedQueue

        feed = self.feed
        condition = feed.condition()
        algorithm = make_ad(feed.spec["algorithm"], condition)
        ingest = BoundedQueue("ingest", 64)
        ce_queues = [BoundedQueue(f"ce{i + 1}", 64) for i in range(feed.replication)]
        alerts = BoundedQueue("alerts", 64)
        start = time.perf_counter()
        async with asyncio.TaskGroup() as group:
            group.create_task(route_updates(ingest, ce_queues))
            for index in range(feed.replication):
                group.create_task(ce_replica(
                    index, ConditionEvaluator(condition, source=f"CE{index + 1}"),
                    feed.stamps[index], ce_queues[index], alerts,
                ))
            group.create_task(ad_merge(algorithm, feed.stamps, alerts))
            for ce_index, update in feed.deliveries:
                await ingest.put((ce_index, update, time.monotonic_ns()))
            await ingest.close()
        end = time.perf_counter()
        rendered = b"".join(
            encode_frame(alert_canonical_line(a).encode()) for a in algorithm.output
        )
        if rendered != self.reference_bytes:
            raise RuntimeError("queue pipeline diverged from DirectRuntime")
        return start, end

    def _traced_direct(self):
        """``DirectRuntime`` once bare, once under the tracer."""
        import repro.displayers.registry as registry
        import repro.props.report as report
        import repro.service.runtime as runtime
        from repro.core.evaluator import ConditionEvaluator
        from repro.displayers.base import ADAlgorithm

        start = time.perf_counter()
        runtime.DirectRuntime().execute(self.feed).digest()
        bare = (start, time.perf_counter())

        tracer = Tracer()
        tracer.patch(ConditionEvaluator, "__init__", "core.evaluator.construct")
        tracer.patch(ConditionEvaluator, "ingest", "core.evaluator.ingest")
        tracer.patch(runtime, "merge_stamped", "service.runtime.merge_stamped")
        tracer.patch(registry, "make_ad", "displayers.make_ad")
        tracer.patch(ADAlgorithm, "offer", "displayers.offer")
        tracer.patch(report, "evaluate_run", "props.report.evaluate_run")
        tracer.patch(report, "check_orderedness", "props.orderedness")
        tracer.patch(report, "check_completeness_single", "props.completeness")
        tracer.patch(report, "check_consistency_single", "props.consistency")
        tracer.patch(report, "combine_received", "core.reference.combine_received")
        tracer.patch(runtime, "alert_canonical_line", "core.serialization.render")
        try:
            with tracer.span("service.feed"):
                start = time.perf_counter()
                result = runtime.DirectRuntime().execute(self.feed)
                digest = result.digest()
                end = time.perf_counter()
        finally:
            tracer.unpatch()
        if digest != hashlib.sha256(self.reference_bytes).hexdigest():
            raise RuntimeError("traced DirectRuntime diverged from the reference")
        return tracer, bare, (start, end), len(result.displayed)

    def per_layer(self) -> dict[str, float]:
        speed = self.ctx.speed
        blast, paced = self.phase_results
        tracer, bare, traced, displayed = self.traced
        deliveries = len(self.feed.deliveries)
        factor = speed.factor(*traced)
        layers: dict[str, float] = {}
        for name in (
            "core.evaluator.construct", "core.evaluator.ingest",
            "service.runtime.merge_stamped", "displayers.make_ad",
            "displayers.offer", "props.orderedness", "props.completeness",
            "props.consistency", "core.reference.combine_received",
            "core.serialization.render",
        ):
            layers[f"{name}_s"] = tracer.busy(name) * factor
            layers[f"{name}_n"] = tracer.calls(name)
        layers["core.evaluator.alerts_n"] = self.feed.total_alerts
        layers["displayers.display_ratio"] = displayed / self.feed.total_alerts

        micro = {name: speed.effective(*span) for name, span in self.micro.items()}
        layers["core.wire.encode_s"] = micro["core.wire.encode"]
        layers["core.wire.decode_s"] = micro["core.wire.decode"]
        layers["core.wire.bytes_n"] = sum(map(len, self.frames))
        layers["service.feed.encode_message_s"] = micro["service.feed.encode_message"]
        layers["service.feed.decode_message_s"] = micro["service.feed.decode_message"]
        layers["service.queues.hop_us"] = 1e6 * micro["service.queues.hop"] / len(self.frames)
        layers["service.consumers.pipeline_updates_per_s"] = (
            deliveries / micro["service.consumers.pipeline"]
        )
        layers["service.runtime.direct_updates_per_s"] = deliveries / speed.effective(*bare)
        layers["harness.trace_overhead_ratio"] = (
            speed.effective(*traced) / speed.effective(*bare)
        )
        layers["harness.passes_n"] = 1

        counters = paced.reply["counters"]
        layers["service.server.blocked_puts_n"] = _sum_kind(counters, "blocked-put")
        layers["service.server.throttle_on_n"] = _sum_kind(counters, "throttle-on")
        layers["service.server.peak_queue_n"] = max(
            (v for k, v in counters.items() if k.startswith("service/peak/")), default=0
        )
        layers["service.server.peak_reorder_n"] = paced.reply["peak_reorder"]
        paced_factor = speed.factor(paced.start, paced.end_written)
        layers["service.latency_p99_ms"] = paced.reply["latency_ms"]["p99"] * paced_factor
        layers["service.latency_max_ms"] = paced.reply["latency_ms"]["max"] * paced_factor
        layers["loadgen.send_lag_p99_ms"] = _p99(paced.send_lag_ms)
        layers["loadgen.achieved_rate"] = paced.achieved_rate
        for result in (blast, paced):
            c = result.reply["counters"]
            self.ctx.note(
                f"{result.phase}: latency_ms {result.reply['latency_ms']} "
                f"peak_reorder {result.reply['peak_reorder']} blocked_puts "
                + " ".join(f"{k.rsplit('/', 1)[1]}={v}" for k, v in sorted(c.items())
                           if k.startswith("service/blocked-put/"))
            )

        report_trace(self.ctx, tracer, "service.feed", "delivery", deliveries)
        # The server is another process, so its delivery is pieced together
        # from the harness-side calls into the same layers.
        trip = speed.effective(blast.start, blast.end)
        parts = {
            "core.wire decode": micro["core.wire.decode"],
            "service.feed decode_message": micro["service.feed.decode_message"],
            "service.queues 4 hops": 4 * micro["service.queues.hop"]
            * deliveries / len(self.frames),
            "direct core (ingest+merge+offer+props)": speed.effective(*bare)
            - tracer.busy("core.serialization.render") * factor,
            "result frame render": tracer.busy("core.serialization.render") * factor,
        }
        self.ctx.note(f"one delivery of the blast round trip "
                      f"({1e6 * trip / deliveries:.1f} us, {deliveries} deliveries)")
        for name, seconds in parts.items():
            self.ctx.note(f"  {name:<40} {1e6 * seconds / deliveries:8.2f} us "
                          f"{100 * seconds / trip:5.1f}%")
        rest = trip - sum(parts.values())
        self.ctx.note(f"  {'unexplained (socket, tasks, JSON result)':<40} "
                      f"{1e6 * rest / deliveries:8.2f} us {100 * rest / trip:5.1f}%")
        return layers


def _p99(values) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _sum_kind(counters: dict[str, int], kind: str) -> int:
    return sum(v for k, v in counters.items() if k.startswith(f"service/{kind}/"))
