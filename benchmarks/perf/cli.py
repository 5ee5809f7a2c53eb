"""Command line of the benchmark.

``--workload NAME`` measures that workload in this process and ends with
one JSON line (the form ``BENCHMARK.json``'s ``command`` is driven in).
Without it, every workload of the contract runs in its own fresh child —
own caches, own ``ru_maxrss`` — and a summary table follows.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.perf.harness import DEFAULT_SEED, load_contract, run_worker

__all__ = ["main"]

_RUN = Path(__file__).with_name("run.py")
SMOKE_SECONDS = 0.3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"reseeds every input generator (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="the traced run (per-layer metrics); without --workload: after the untraced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for span JSONL and server stderr")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every code path in a few seconds, numbers meaningless")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced suite twice; fail unless the medians agree within bounds")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="smoke-test hook: flip one reference line of service-stream")
    return parser


def _child(args: argparse.Namespace, workload: str, trace: int, seconds: float) -> dict[str, Any]:
    """One workload in a fresh process; its report is relayed, its last
    line parsed."""
    command = [
        sys.executable, str(_RUN), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if args.out is not None:
        command += ["--out", str(args.out)]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    result: dict[str, Any] | None = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    for line in lines[:-1] if result is not None else lines:
        print(f"  {line}")
    if result is None:
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = done.returncode
    return result


def _suite(args: argparse.Namespace, contract: dict[str, Any], seconds: float,
           traces: tuple[int, ...]) -> tuple[dict, bool]:
    """``{(workload, trace): result}`` and whether every run was correct."""
    results = {}
    ok = True
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in traces:
            print(f"== {workload} trace={trace}", flush=True)
            result = _child(args, workload, trace, seconds)
            results[workload, trace] = result
            ok = ok and result["exit"] == 0 and result["correct"]
    return results, ok


def _print_summary(contract: dict[str, Any], results: dict, traces: tuple[int, ...]) -> None:
    workloads = [w["name"] for w in contract["workloads"]]
    for trace in traces:
        specs = contract["per_layer" if trace else "end_to_end"]
        print(f"\n{'per-layer (traced run)' if trace else 'end-to-end (untraced runs)'}")
        print(f"{'metric':<44}{'unit':<8}" + "".join(f"{w:>18}" for w in workloads))
        for spec in specs:
            cells = []
            for workload in workloads:
                metric = results[workload, trace]["metrics"].get(spec["name"])
                cells.append(f"{metric['value']:>18.6g}" if metric else f"{'-':>18}")
            print(f"{spec['name']:<44}{spec['unit']:<8}" + "".join(cells))
    print(f"\n{'workload':<20}{'ops':>10}{'failed_ops':>12}")
    for workload in workloads:
        ops = sum(results[workload, t]["attempted"] for t in traces)
        failed = sum(results[workload, t]["failed"] for t in traces)
        print(f"{workload:<20}{ops:>10}{failed:>12}")


def _selfcheck(args: argparse.Namespace, contract: dict[str, Any], seconds: float) -> int:
    first, ok_first = _suite(args, contract, seconds, (0,))
    second, ok_second = _suite(args, contract, seconds, (0,))
    agree = ok_first and ok_second
    print(f"\n{'workload':<20}{'metric':<18}{'first':>14}{'second':>14}{'worse by':>10}{'bound':>8}")
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a = first[workload, 0]["metrics"].get(spec["name"], {}).get("value")
            b = second[workload, 0]["metrics"].get(spec["name"], {}).get("value")
            if not a or not b:
                agree = False
                print(f"{workload:<20}{spec['name']:<18}{'missing':>14}")
                continue
            # How much worse is the worse of the two, as a share of the other?
            lo, hi = sorted((a, b))
            worse = (hi - lo) / (lo if spec["better"] == "lower" else hi)
            verdict = "" if worse <= spec["bound"] else "  DISAGREE"
            agree = agree and not verdict
            print(f"{workload:<20}{spec['name']:<18}{a:>14.6g}{b:>14.6g}"
                  f"{100 * worse:>9.1f}%{100 * spec['bound']:>7.0f}%{verdict}")
    print("selfcheck:", "PASS" if agree else "FAIL")
    return 0 if agree else 1


def main(argv: list[str] | None = None, *, started: float) -> int:
    args = _parser().parse_args(argv)
    contract = load_contract()
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    if args.workload is not None:
        return run_worker(
            args.workload, args.seed, seconds, bool(args.trace), args.out,
            args.smoke, args.corrupt_reference, started,
        )
    print(f"seed {args.seed} (default {DEFAULT_SEED}); a claim must also hold on "
          "a seed not used while the change was written")
    if args.selfcheck:
        return _selfcheck(args, contract, seconds)
    traces = (0, 1) if args.trace else (0,)
    results, ok = _suite(args, contract, seconds, traces)
    _print_summary(contract, results, traces)
    return 0 if ok else 1
