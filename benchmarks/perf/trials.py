"""The two trial-grid workloads: ``table3-grid`` and ``chaos-churn-grid``.

Both push :class:`~repro.engine.spec.TrialSpec` blocks through
``TrialEngine(processes=1).run``.  A *block* is one pass: a whole Table-3
plan, or one seed block of the chaos sweep cell.  Consecutive passes run
consecutive blocks — different seeds, same distribution — because a
Table-3 trial costs 1.7 ms on average with a 3 ms standard deviation (the
completeness DFS has a heavy tail): re-timing one block five times would
measure that block's luck, and the number would move ~4% with ``--seed``
on its own.  Block 0 is also the warm-up, so it runs twice and its two
digests must agree.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import asdict, replace
from typing import Any

from benchmarks.perf.harness import Ctx, Sample, report_trace
from benchmarks.perf.spans import Tracer

__all__ = ["Table3Grid", "ChaosChurnGrid"]


def _seed_base(seed: int, salt: int) -> int:
    """A base seed far from every other generator's range."""
    return 20_010_800 + salt + seed * 1_000_003


class _Grid:
    """Shared pass loop, tracing and metric arithmetic of the two grids."""

    name = ""
    rss_who = resource.RUSAGE_SELF

    def __init__(self, ctx: Ctx) -> None:
        from repro.engine import TrialEngine

        self.ctx = ctx
        self.engine = TrialEngine(processes=1)
        #: One tuple of specs per block.
        self.blocks: list[tuple] = []
        #: ``(block index, start, end)`` per timed pass.
        self.passes: list[tuple[int, float, float]] = []
        self.ops = 0
        self.failed_ops = 0
        self.layers: dict[str, float] = {}

    # -- per-workload hooks --------------------------------------------------
    def plan_block(self, index: int) -> tuple:
        """The specs of block ``index``."""
        raise NotImplementedError

    def check(self, index: int, reports: list) -> bool:
        """Is this pass's output right?  (Cheap part; see ``verify``.)"""
        raise NotImplementedError

    def verify(self) -> None:
        """Post-window checks that are too slow to sit between passes."""

    # -- the fixed sequence --------------------------------------------------
    def setup(self) -> None:
        self.blocks = [self.plan_block(i) for i in range(self.n_blocks)]

    def warm(self) -> None:
        self.run_block(0)

    def timed_run(self, specs: tuple) -> tuple[float, float, list]:
        from repro.core.reference import clear_reference_caches

        clear_reference_caches()
        start = time.perf_counter()
        reports = self.engine.run(specs)
        return start, time.perf_counter(), reports

    def run_block(self, index: int) -> tuple[float, float, list]:
        return self.timed_run(self.blocks[index])

    def record(self, index: int, reports: list) -> None:
        self.ops += len(reports)
        if not self.check(index, reports):
            self.failed_ops += len(reports)

    def measure(self) -> None:
        done = 0
        while not self.ctx.expired() or done < self.ctx.sizes.min_passes:
            index = done % len(self.blocks)
            start, end, reports = self.run_block(index)
            self.passes.append((index, start, end))
            self.record(index, reports)
            done += 1

    def close(self) -> None:
        self.engine.close()

    def end_to_end(self) -> dict[str, Sample]:
        speed = self.ctx.speed
        seconds = [speed.effective(a, b) for _, a, b in self.passes]
        counts = [len(self.blocks[i]) for i, _, _ in self.passes]
        updates = [
            sum(spec.n_updates for spec in self.blocks[i]) for i, _, _ in self.passes
        ]
        self.ctx.note("pass raw_s " + " ".join(
            f"{b - a:.4f}" for _, a, b in self.passes))
        self.ctx.note("pass eff_s " + " ".join(f"{s:.4f}" for s in seconds))
        rate = Sample.of(n / s for n, s in zip(counts, seconds))
        self.ctx.note(f"harness.pass_spread_pct {rate.spread_pct():.2f}")
        return {
            "trials_per_s": rate,
            "updates_per_s": Sample.of(u / s for u, s in zip(updates, seconds)),
            # A batch has no arrival process: its latency is the mean time
            # one trial occupies the engine, and its result is complete
            # ("drained") when the pass ends.
            "latency_p50_ms": Sample.of(1e3 * s / n for n, s in zip(counts, seconds)),
            "drain_s": Sample.of(seconds),
        }

    # -- the traced run ------------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        import repro.components.system as system
        import repro.props.completeness as completeness
        import repro.props.report as report
        import repro.quality.metrics as quality
        import repro.simulation.arraykernel as arraykernel
        import repro.workloads.scenarios as scenarios
        from repro.engine.spec import TrialSpec
        from repro.faults.plan import FaultProfile

        tracer.patch(TrialSpec, "execute", "engine.trial", coarse=True)
        tracer.patch(scenarios.Scenario, "make_condition", "workloads.make_workload")
        tracer.patch(scenarios.Scenario, "make_workload", "workloads.make_workload")
        tracer.patch(FaultProfile, "materialize", "faults.materialize")
        tracer.patch(arraykernel, "plan_membership", "membership.plan")
        tracer.patch(system, "plan_membership", "membership.plan")

        def counting_run_system(fn):
            timed = tracer.wrap("simulation.run_system", fn)

            def run_system(*args, **kwargs):
                run = timed(*args, **kwargs)
                self.deliveries += sum(len(stream) for stream in run.received)
                return run

            return run_system

        tracer.patch_with(scenarios, "run_system", counting_run_system)
        tracer.patch(system.RunResult, "evaluate_properties", "props.report.evaluate_run")
        tracer.patch(report, "check_orderedness", "props.orderedness")
        tracer.patch(report, "check_completeness_single", "props.completeness")
        tracer.patch(report, "check_completeness_multi", "props.completeness")
        tracer.patch(report, "check_consistency_single", "props.consistency")
        tracer.patch(report, "check_consistency_multi", "props.consistency")
        tracer.patch(report, "combine_received", "core.reference.combine_received")
        tracer.patch(completeness, "combine_received", "core.reference.combine_received")
        tracer.patch(completeness, "apply_T", "core.reference.apply_T")
        tracer.patch(quality, "alert_quality", "quality.alert_quality")

    def trace(self) -> None:
        from repro.core.reference import reference_cache_info

        ctx = self.ctx
        # A third of the window untraced, then the same blocks traced.
        third = time.perf_counter() + ctx.seconds / 3
        untraced: list[tuple[float, float]] = []
        while len(untraced) < ctx.sizes.trace_blocks or (
            time.perf_counter() < third and len(untraced) < len(self.blocks)
        ):
            untraced.append(self.run_block(len(untraced))[:2])
        blocks = range(len(untraced))
        tracer = Tracer()
        self.deliveries = 0
        hits = lookups = undecided = 0
        self.install(tracer)
        traced: list[tuple[float, float]] = []
        try:
            for i in blocks:
                with tracer.span("engine.run"):
                    start, end, reports = self.run_block(i)
                traced.append((start, end))
                for cache in reference_cache_info().values():
                    hits += cache["hits"]
                    lookups += cache["hits"] + cache["misses"]
                undecided += sum(
                    1 for r in reports
                    if r.complete is not None and r.complete.undecided
                )
                self.record(i, reports)
        finally:
            tracer.unpatch()
        self.traced = (tracer, untraced, traced, hits, lookups, undecided)
        self.trace_extras()

    def per_layer(self) -> dict[str, float]:
        """Fold the traced run into metrics (needs the stopped probe)."""
        tracer, untraced, traced, hits, lookups, undecided = self.traced
        speed = self.ctx.speed
        factor = speed.factor(traced[0][0], traced[-1][1])
        base = sum(speed.effective(a, b) for a, b in untraced)
        cost = sum(speed.effective(a, b) for a, b in traced)
        layers = self.layers
        for name in (
            "workloads.make_workload", "faults.materialize", "membership.plan",
            "simulation.run_system", "props.orderedness", "props.completeness",
            "props.consistency", "core.reference.combine_received",
            "core.reference.apply_T", "quality.alert_quality",
        ):
            layers[f"{name}_s"] = tracer.busy(name) * factor
            layers[f"{name}_n"] = tracer.calls(name)
        layers["simulation.deliveries_n"] = self.deliveries
        layers["props.completeness_undecided_n"] = undecided
        layers["core.reference.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        layers["engine.dispatch_s"] = (
            tracer.busy("engine.run") - tracer.busy("engine.trial")
        ) * factor
        layers["harness.trace_overhead_ratio"] = cost / base
        rates = Sample.of(
            len(self.blocks[i]) / speed.effective(a, b)
            for i, (a, b) in enumerate(untraced)
        )
        layers["harness.pass_spread_pct"] = rates.spread_pct()
        layers["harness.passes_n"] = len(untraced)
        report_trace(self.ctx, tracer, "engine.run", "trial", tracer.calls("engine.trial"))
        return layers

    def trace_extras(self) -> None:
        """Workload-specific extra passes of the traced run."""


class Table3Grid(_Grid):
    name = "table3-grid"

    def __init__(self, ctx: Ctx) -> None:
        super().__init__(ctx)
        self.n_blocks = ctx.sizes.table3_blocks
        #: block index -> TablePlan, for ``tabulate``.
        self.plans: dict[int, Any] = {}
        self.reference_digest: str | None = None
        # 100 trials per cell is the committed-table size at which every
        # cell of Table 3 is decided; below it (smoke) a ✗ cell may simply
        # not have met its witness yet.
        self.check_paper = ctx.sizes.table3_trials >= 100

    def plan_block(self, index: int) -> tuple:
        from repro.engine import plan_table

        self.plans[index] = plan_table(
            "table3", trials=self.ctx.sizes.table3_trials, n_updates=30,
            base_seed=_seed_base(self.ctx.seed, 0) + index * 10_007,
        )
        return self.plans[index].specs

    def digest(self, index: int, reports: list):
        from repro.engine import tabulate

        table = tabulate(self.plans[index], reports)
        rows = {row: asdict(tally) for row, tally in table.tallies.items()}
        text = json.dumps(rows, sort_keys=True)
        return table, hashlib.sha256(text.encode()).hexdigest()

    def warm(self) -> None:
        _, _, reports = self.run_block(0)
        _, self.reference_digest = self.digest(0, reports)
        self.ctx.note(f"tally_digest {self.reference_digest}")

    def check(self, index: int, reports: list) -> bool:
        table, digest = self.digest(index, reports)
        if index == 0 and digest != self.reference_digest:
            return False
        return table.matches_paper() if self.check_paper else True

    def trace_extras(self) -> None:
        from repro.engine import TrialEngine

        # Informational: the pool's workers share this host's cores.
        specs = self.blocks[0]
        os.sched_setaffinity(0, {self.ctx.client_cpu, self.ctx.measured_cpu})
        try:
            with TrialEngine(processes=os.cpu_count() or 1) as pool:
                pool.run(specs[:64])  # start the workers outside the timing
                start = time.perf_counter()
                pool.run(specs)
                elapsed = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, {self.ctx.measured_cpu})
        self.layers["engine.pool_trials_per_s"] = len(specs) / elapsed


class ChaosChurnGrid(_Grid):
    name = "chaos-churn-grid"

    def __init__(self, ctx: Ctx) -> None:
        super().__init__(ctx)
        self.n_blocks = ctx.sizes.chaos_blocks
        #: Every tenth report of every checked pass, for ``verify``.
        self.sampled: list[tuple[Any, Any]] = []

    def plan_block(self, index: int, **overrides) -> tuple:
        from repro.membership.config import MembershipConfig
        from repro.quality.sweep import quality_specs

        size = self.ctx.sizes.chaos_specs
        specs = quality_specs(
            "adaptive", 0.2, 1.0, size, row="aggressive",
            n_updates=self.ctx.sizes.chaos_updates,
            base_seed=_seed_base(self.ctx.seed, 500_000) + index * size,
        )
        changes = {
            "membership": MembershipConfig(detection_timeout=4.0, catchup_latency=2.0),
            "collect_counters": True,
            **overrides,
        }
        return tuple(replace(spec, **changes) for spec in specs)

    def check(self, index: int, reports: list) -> bool:
        self.sampled.extend(zip(self.blocks[index][::10], reports[::10]))
        return all(
            r.quality is not None and r.counters and r.churn is not None
            for r in reports
        )

    def verify(self) -> None:
        """A 10% sample re-run on the object kernel must agree exactly."""
        mismatches = 0
        for spec, report in self.sampled:
            oracle = replace(spec, kernel="object").execute()
            if (oracle.summary, oracle.counters, oracle.quality) != (
                report.summary, report.counters, report.quality
            ):
                mismatches += 1
        self.ctx.note(f"object-kernel sample {len(self.sampled)} specs, "
                      f"{mismatches} mismatches")
        if mismatches:
            self.failed_ops = self.ops

    def trace_extras(self) -> None:
        """What do counters and membership cost?  Block 0, three ways."""
        self.variants = [
            self.timed_run(specs)[:2]
            for specs in (
                self.blocks[0],
                self.plan_block(0, collect_counters=False),
                self.plan_block(0, membership=None),
            )
        ]

    def per_layer(self) -> dict[str, float]:
        layers = super().per_layer()
        speed = self.ctx.speed
        full, plain, static = (speed.effective(a, b) for a, b in self.variants)
        layers["observability.counters_cost_ratio"] = full / plain
        layers["membership.cost_ratio"] = full / static
        return layers
