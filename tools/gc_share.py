"""What the cyclic collector costs on each in-process path.

``gc.callbacks`` brackets every collection the interpreter starts, so
this counts them per generation and times them — no source change, no
profiler::

    make gc-share [SEED=7]

Paths, at the sizes ``BENCHMARK.json`` measures (``benchmarks.perf.
harness.FULL``): one ``tenant-batch`` pass (the Zipf population over four
shards), ``DirectRuntime`` and ``AsyncioServiceRuntime`` on the
``service-stream`` feed, and one block of each trial grid.  Each path
runs once untimed (imports, closure caches), then once under the
counter.  ``unreachable`` is what the collections found: payload graphs
are acyclic, so anything above asyncio's handful per connection is news.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


class CollectorClock:
    """Collections per generation, seconds inside them, objects freed."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self.unreachable = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1
            self.unreachable += info["collected"] + info["uncollectable"]

    def __enter__(self) -> "CollectorClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def paths(seed: int) -> list[tuple[str, Callable[[], object]]]:
    from benchmarks.perf.harness import FULL as sizes
    from repro.engine import INLINE_ENGINE as engine, plan_table
    from repro.engine.spec import TrialSpec
    from repro.membership.config import MembershipConfig
    from repro.quality.sweep import quality_specs
    from repro.service.feed import record_feed
    from repro.service.runtime import DirectRuntime
    from repro.service.server import AsyncioServiceRuntime
    from repro.sharding.ring import ShardConfig
    from repro.sharding.tenants import (
        partition_tenants,
        run_shard,
        zipfian_update_counts,
    )

    counts = dict(enumerate(
        zipfian_update_counts(sizes.tenants, sizes.tenant_updates, seed)
    ))
    shards = partition_tenants(sizes.tenants, ShardConfig(shards=4))

    def tenant_batch():
        return [
            run_shard(shard, tenants, seed, update_counts=counts)
            for shard, tenants in enumerate(shards)
        ]

    recorded = record_feed(TrialSpec(
        "single", "aggressive", "AD-3", seed, n_updates=sizes.feed_updates
    ))
    # Source order, as benchmarks/perf/service.py sends it.
    feed = replace(recorded, deliveries=tuple(sorted(
        recorded.deliveries, key=lambda d: (d[1].seqno, d[0])
    )))

    table3 = plan_table(
        "table3", trials=sizes.table3_trials, n_updates=30, base_seed=seed
    ).specs
    churn = tuple(
        replace(
            spec,
            membership=MembershipConfig(detection_timeout=4.0, catchup_latency=2.0),
            collect_counters=True,
        )
        for spec in quality_specs(
            "adaptive", 0.2, 1.0, sizes.chaos_specs, row="aggressive",
            n_updates=sizes.chaos_updates, base_seed=seed,
        )
    )
    return [
        ("tenant-batch pass", tenant_batch),
        ("service-stream DirectRuntime", lambda: DirectRuntime().execute(feed)),
        ("service-stream AsyncioServiceRuntime",
         lambda: AsyncioServiceRuntime().execute(feed)),
        ("table3-grid block", lambda: engine.run(table3)),
        ("chaos-churn-grid block", lambda: engine.run(churn)),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(f"{'path':<38} {'gen0':>6} {'gen1':>5} {'gen2':>5} "
          f"{'gc_s':>7} {'wall_s':>7} {'share':>6} {'unreachable':>11}")
    for name, run in paths(args.seed):
        run()
        gc.collect()
        with CollectorClock() as clock:
            start = time.perf_counter()
            run()
            wall = time.perf_counter() - start
        gen0, gen1, gen2 = clock.collections
        print(f"{name:<38} {gen0:>6} {gen1:>5} {gen2:>5} {clock.seconds:>7.3f} "
              f"{wall:>7.3f} {100 * clock.seconds / wall:>5.1f}% "
              f"{clock.unreachable:>11}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
