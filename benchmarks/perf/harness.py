"""The worker: run one workload in this process and report its metrics.

One invocation measures one workload once (``--trace 0``: the end-to-end
metrics from untraced passes; ``--trace 1``: the per-layer metrics from a
traced pass).  The order is fixed: set-up (repeated, timed) → warm-up and
reference outputs (untimed) → timed passes until ``--seconds`` have gone
by → correctness of every pass against the reference → metrics.  No time
is reported for a run whose outputs were not checked, and a pass whose
check failed fails all its ops.

The metric names, units and bounds are read from ``BENCHMARK.json`` — the
contract is the one list, this module only fills it in.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.perf.hostspeed import HostSpeed, available_cpus, pin

__all__ = [
    "ROOT",
    "Ctx",
    "Sizes",
    "Sample",
    "load_contract",
    "host_record",
    "quartiles",
    "report_trace",
    "run_worker",
]

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_SEED = 7


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_record() -> dict[str, Any]:
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": "present" if has_numpy else "absent",
        "load1": os.getloadavg()[0],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)``; a sample of one is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass(frozen=True)
class Sample:
    """The per-pass values behind one reported number."""

    values: tuple[float, ...]

    @classmethod
    def of(cls, values) -> "Sample":
        return cls(tuple(float(v) for v in values))

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    def describe(self) -> str:
        q1, _, q3 = quartiles(list(self.values))
        return f"q1 {q1:.6g} q3 {q3:.6g} n {len(self.values)}"

    def spread_pct(self) -> float:
        q1, median, q3 = quartiles(list(self.values))
        return 100.0 * (q3 - q1) / median if median else 0.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``FULL`` is what BENCHMARK.json measures; ``SMOKE``
    drives every code path in a few seconds for the smoke test."""

    setup_repeats: int
    min_passes: int
    #: table3-grid: trials per cell per block, blocks planned in set-up.
    table3_trials: int
    table3_blocks: int
    #: chaos-churn-grid: specs per block, blocks planned in set-up.
    chaos_specs: int
    chaos_updates: int
    chaos_blocks: int
    #: service-stream: source updates of the recorded feed.
    feed_updates: int
    paced_rate: int
    #: servers booted ahead of the window, one per expected phase.
    service_phases: int
    #: tenant-batch population.
    tenants: int
    tenant_updates: int
    #: blocks re-run under the tracer in a ``--trace 1`` run.
    trace_blocks: int


FULL = Sizes(
    setup_repeats=4, min_passes=3,
    table3_trials=150, table3_blocks=18,
    chaos_specs=60, chaos_updates=200, chaos_blocks=24,
    feed_updates=20_000, paced_rate=10_000, service_phases=6,
    tenants=5_000, tenant_updates=120_000,
    trace_blocks=2,
)
SMOKE = Sizes(
    setup_repeats=1, min_passes=1,
    table3_trials=6, table3_blocks=1,
    chaos_specs=10, chaos_updates=60, chaos_blocks=1,
    feed_updates=400, paced_rate=10_000, service_phases=2,
    tenants=300, tenant_updates=6_000,
    trace_blocks=1,
)


@dataclass
class Ctx:
    """What a workload needs from the harness."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    out: Path | None
    sizes: Sizes
    corrupt_reference: bool
    speed: HostSpeed
    #: vCPU of the load generator / harness, and of the measured program.
    client_cpu: int
    measured_cpu: int
    deadline: float = 0.0
    notes: list[str] = field(default_factory=list)

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def note(self, text: str) -> None:
        self.notes.append(text)

    def out_path(self, suffix: str) -> Path | None:
        if self.out is None:
            return None
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / f"{self.workload}.seed{self.seed}.{suffix}"


def report_trace(ctx: Ctx, tracer, under: str, unit: str, count: int) -> None:
    """Note 'where the time goes' for one ``unit`` (self times under the
    span ``under``, which sum to it) and write the spans to ``--out``."""
    total = tracer.busy(under)
    ctx.note(f"where the time goes: one {unit} of {ctx.workload} "
             f"(traced; {count} of them, {1e6 * total / count:.1f} us each)")
    for name, calls, own in tracer.breakdown(under):
        ctx.note(f"  {name:<36} {1e6 * own / count:10.2f} us "
                 f"{100 * own / total:5.1f}%  calls/{unit} {calls / count:.2f}")
    path = ctx.out_path("spans.jsonl")
    if path is not None:
        tracer.write_jsonl(path)


def _workload_class(name: str):
    if name in ("table3-grid", "chaos-churn-grid"):
        from benchmarks.perf import trials

        return {"table3-grid": trials.Table3Grid,
                "chaos-churn-grid": trials.ChaosChurnGrid}[name]
    if name == "service-stream":
        from benchmarks.perf.service import ServiceStream

        return ServiceStream
    if name == "tenant-batch":
        from benchmarks.perf.tenants import TenantBatch

        return TenantBatch
    raise KeyError(name)


def run_worker(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path | None,
    smoke: bool,
    corrupt_reference: bool,
    started: float,
) -> int:
    contract = load_contract()
    if workload not in {w["name"] for w in contract["workloads"]}:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    host = host_record()
    cpus = available_cpus()
    ctx = Ctx(
        workload=workload, seed=seed, seconds=seconds, trace=trace, out=out,
        sizes=SMOKE if smoke else FULL, corrupt_reference=corrupt_reference,
        speed=HostSpeed(cpus[-1]), client_cpu=cpus[0], measured_cpu=cpus[-1],
    )
    # The program under test shares one vCPU with the probe and nothing else.
    pin(0, ctx.measured_cpu)
    instance = _workload_class(workload)(ctx)
    setups: list[tuple[float, float]] = []
    ctx.speed.start()
    try:
        for _ in range(ctx.sizes.setup_repeats):
            begin = time.perf_counter()
            instance.setup()
            setups.append((begin, time.perf_counter()))
        instance.warm()
        ctx.deadline = time.perf_counter() + seconds
        if trace:
            instance.trace()
        else:
            instance.measure()
        instance.verify()
        ctx.speed.stop()
    finally:
        instance.close()
        ctx.speed.abort()

    if trace:
        values = instance.per_layer()
        values["harness.host_speed_index"] = ctx.speed.index()
        values["harness.probe_duty_pct"] = 100.0 * ctx.speed.duty()
        wanted = contract["per_layer"]
        # A layer a workload never enters reports 0 calls / 0 seconds.
        samples = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
        unknown = sorted(set(values) - set(samples))
        if unknown:
            raise RuntimeError(f"metrics not in BENCHMARK.json: {unknown}")
    else:
        samples = instance.end_to_end()
        # The first set-up also pays the imports; it is shown, not scored.
        cold, *rest = (ctx.speed.effective(a, b) for a, b in setups)
        ctx.note(f"setup cold_s {cold:.4f}")
        samples["setup_s"] = Sample.of(rest or [cold])
        rss = resource.getrusage(instance.rss_who).ru_maxrss / 1024.0
        samples["peak_rss_mb"] = Sample.of([rss])
        samples["wall_s"] = Sample.of([time.perf_counter() - started])
        wanted = contract["end_to_end"]
        if set(samples) != {m["name"] for m in wanted}:
            raise RuntimeError(
                f"end-to-end metrics {sorted(samples)} do not match BENCHMARK.json"
            )

    failed = instance.failed_ops
    print(f"workload {workload} seed {seed} (default {DEFAULT_SEED}) "
          f"trace {int(trace)} seconds {seconds:g}"
          f"{' SMOKE' if smoke else ''}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items())
          + f" measured_cpu={ctx.measured_cpu} client_cpu={ctx.client_cpu}"
          + f" host_speed_index={ctx.speed.index():.3f}"
          + f" probe_duty_pct={100 * ctx.speed.duty():.1f}")
    for line in ctx.notes:
        print(line)
    metrics: dict[str, dict[str, Any]] = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        sample = samples[name]
        if isinstance(sample, Sample):
            value, detail = sample.median, sample.describe()
        else:
            value, detail = float(sample), ""
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value:.6g} {unit} {detail}".rstrip())
    print(f"ops {instance.ops} failed_ops {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": instance.ops,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1
