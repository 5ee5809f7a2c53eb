"""Smoke test of the benchmark harness.

Not part of the tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/perf/test_perf_smoke.py -q

It drives the ``--smoke`` sizes (every code path, meaningless numbers) and
checks the harness against ``BENCHMARK.json`` — the names, not the values.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "perf" / "run.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "11", *args],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )


def test_suite_emits_every_contract_name_once_with_its_unit():
    done = _run("--trace")
    assert done.returncode == 0, done.stdout[-2000:]
    emitted: dict[tuple[str, int], list[tuple[str, str]]] = defaultdict(list)
    section = None
    for line in done.stdout.splitlines():
        header = re.fullmatch(r"== (\S+) trace=([01])", line)
        if header:
            section = (header.group(1), int(header.group(2)))
            assert section not in emitted, f"{section} ran twice"
            emitted[section] = []
        elif line.startswith("  metric "):
            _, name, value, unit = line.split()[:4]
            float(value)
            emitted[section].append((name, unit))
    assert sorted(emitted) == sorted((w, t) for w in WORKLOADS for t in (0, 1))
    for (workload, trace), pairs in emitted.items():
        wanted = CONTRACT["per_layer" if trace else "end_to_end"]
        assert pairs == [(m["name"], m["unit"]) for m in wanted], (workload, trace)
    for spec in CONTRACT["end_to_end"] + CONTRACT["per_layer"] + CONTRACT["workloads"]:
        assert NAME.fullmatch(spec["name"]), spec["name"]
    # ops / failed_ops per workload, and nothing failed.
    for workload in WORKLOADS:
        row = re.search(rf"^{re.escape(workload)}\s+(\d+)\s+(\d+)$", done.stdout, re.M)
        assert row and int(row.group(1)) >= 1 and int(row.group(2)) == 0, workload


def test_end_to_end_values_are_never_zero():
    done = _run("--workload", "tenant-batch")
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_fails_the_run():
    done = _run("--workload", "service-stream", "--corrupt-reference")
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] == result["attempted"]
