"""Command-line interface: ``python -m repro <command>``.

Everything the benchmarks do, driveable from a shell::

    python -m repro tables table1 table2        # regenerate paper tables
    python -m repro scenario aggressive --algorithm AD-1 --seed 7 --timeline
    python -m repro trace record aggressive --seed 7 --out run.jsonl
    python -m repro trace replay run.jsonl      # bit-identical or exit 1
    python -m repro trace summarize run.jsonl
    python -m repro fuzz --target consistency --budget 2000 --minimize
    python -m repro fuzz --row aggressive --algorithm AD-1 --minimize
    python -m repro chaos --intensities 0 1 2 --trials 30
    python -m repro quality --row aggressive --trials 20
    python -m repro quality --losses 0 0.3 --intensities 0 1 --json out.json
    python -m repro feed record aggressive --seed 7 --out run.feed
    python -m repro feed conform run.feed         # all runtimes identical?
    python -m repro serve --port 7801             # online monitoring service
    python -m repro feed send run.feed --port 7801 --conform
    python -m repro list

Exit status is 0 when the measured results agree with the paper's claims,
1 otherwise — so the CLI doubles as a reproduction check in CI.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.tables import EXPECTED_GRIDS, build_table, render_table
from repro.displayers.registry import algorithm_info, algorithm_names
from repro.workloads.scenarios import (
    DIVERSITY_ROWS,
    MULTI_VARIABLE_SCENARIOS,
    ROW_ORDER,
    SINGLE_VARIABLE_SCENARIOS,
)

__all__ = ["main"]


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.engine import TrialEngine

    table_ids = args.tables or list(EXPECTED_GRIDS)
    for table_id in table_ids:
        if table_id not in EXPECTED_GRIDS:
            print(f"unknown table {table_id!r}; known: {list(EXPECTED_GRIDS)}")
            return 2
    kwargs = {"collect_counters": args.counters}
    if args.trials:
        kwargs["trials"] = args.trials
    if args.updates:
        kwargs["n_updates"] = args.updates
    all_ok = True
    # One persistent engine serves every requested table: the worker pool
    # (and each worker's warmed imports) is reused across grids.
    with TrialEngine(processes=args.processes) as engine:
        for table_id in table_ids:
            result = build_table(table_id, engine=engine, **kwargs)
            print(render_table(result))
            if args.counters:
                _print_table_counters(result)
            print()
            all_ok = all_ok and result.matches_paper()
    print(f"overall paper agreement: {'YES' if all_ok else 'NO'}")
    return 0 if all_ok else 1


def _print_stage_counters(summary: dict[str, dict[str, int]], indent: str = "  ") -> None:
    for stage, kinds in summary.items():
        rendered = ", ".join(f"{kind}={count}" for kind, count in kinds.items())
        print(f"{indent}{stage:<7} {rendered}")


def _print_table_counters(result) -> None:
    print("observability counters (summed over trials):")
    for row, tally in result.tallies.items():
        print(f" {row}:")
        _print_stage_counters(tally.stage_counters(), indent="   ")


def _scenario_for(row: str, multi: bool):
    scenarios = MULTI_VARIABLE_SCENARIOS if multi else SINGLE_VARIABLE_SCENARIOS
    if row not in scenarios:
        raise SystemExit(
            f"unknown scenario {row!r} in the"
            f" {'multi' if multi else 'single'}-variable matrix;"
            f" rows: {sorted(scenarios)}"
        )
    return scenarios[row]


def _trial_spec(args: argparse.Namespace, algorithm: str, **knobs):
    """The TrialSpec named by a command's row, ``--multi``, ``--seed``
    and ``--updates``, with ``knobs`` for its other fields."""
    from repro.engine.spec import TrialSpec

    return TrialSpec(
        "multi" if args.multi else "single", args.row, algorithm,
        args.seed, args.updates, **knobs,
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenario = _scenario_for(args.row, args.multi)
    spec = _trial_spec(args, args.algorithm)
    tracer = None
    if args.counters:
        from repro.observability import CountersTracer

        tracer = CountersTracer()
    run = spec.run(tracer)
    print(f"scenario: {scenario.label}")
    print(f"algorithm: {args.algorithm}, seed: {args.seed}")
    for var, sent in run.sent.items():
        print(f"  DM-{var} sent {len(sent)} updates")
    for index, trace in enumerate(run.received):
        print(f"  CE{index + 1} received {len(trace)}, generated "
              f"{len(run.ce_alerts[index])} alerts")
    print(f"  AD displayed {len(run.displayed)} of {len(run.ad_arrivals)} arrivals")
    report = run.evaluate_properties()
    print(f"  properties: {report.summary}")
    if tracer is not None:
        print("  observability counters:")
        _print_stage_counters(tracer.stage_summary(), indent="    ")
    if args.timeline:
        from repro.observability import record_trial, render_timeline

        print()
        print(render_timeline(record_trial(spec).events))
    return 0


#: Accepted ``--target`` spellings (the paper says "consistency", the
#: report keys say "consistent" — take both).
_FUZZ_TARGETS = {
    "ordered": "ordered",
    "orderedness": "ordered",
    "complete": "complete",
    "completeness": "complete",
    "consistent": "consistent",
    "consistency": "consistent",
    "any": None,
}


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.engine import TrialEngine
    from repro.fuzz import FuzzConfig, FuzzEngine, shrink_spec
    from repro.observability import replay_trace

    _scenario_for(args.row, args.multi)  # validate the row early
    try:
        config = FuzzConfig(
            matrix="multi" if args.multi else "single",
            row=args.row,
            algorithm=args.algorithm,
            target=_FUZZ_TARGETS[args.target],
            budget=args.budget,
            fuzz_seed=args.fuzz_seed,
            batch_size=args.batch,
            n_updates=args.updates,
            replication=args.replication,
        )
    except ValueError as exc:
        print(f"repro fuzz: error: {exc}", file=sys.stderr)
        return 2
    with TrialEngine(processes=args.processes) as engine:
        result = FuzzEngine(config, engine=engine).run()

    print(
        f"fuzz: {config.matrix}/{config.row} {config.algorithm} "
        f"target={args.target} budget={config.budget} "
        f"fuzz-seed={config.fuzz_seed}"
    )
    print(
        f"  {result.executed} runs ({result.skipped_duplicates} duplicate "
        f"specs skipped), corpus {result.corpus_size}, "
        f"{result.features} coverage features, "
        f"{result.distinct_signatures} distinct signatures"
    )
    print(
        f"  {result.distinct_violating_signatures} distinct violating "
        "signatures"
    )
    if not result.findings:
        print("  no violations found")
        return 1

    for finding in result.findings[:5]:
        spec = finding.witness_spec
        print(
            f"  - {finding.violation} @ seed={spec.seed} "
            f"n_updates={spec.n_updates} replication={spec.replication}"
            + ("" if spec.faults is None else " +faults")
        )
    if len(result.findings) > 5:
        print(f"    ... and {len(result.findings) - 5} more")

    if not args.minimize:
        return 0

    out_dir = None
    if args.out:
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    replays_ok = True
    for index, finding in enumerate(result.findings[: args.minimize_limit]):
        shrunk = shrink_spec(finding.witness_spec, finding.violation)
        print()
        print(shrunk.describe())
        replay = replay_trace(shrunk.trace)
        print(f"  replay: {replay.describe()}")
        replays_ok = replays_ok and replay.identical
        if out_dir is not None:
            path = shrunk.trace.write(
                out_dir / f"witness_{index}_{finding.violation}.jsonl"
            )
            print(f"  trace written to {path}")
    return 0 if replays_ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.churn:
        return _cmd_chaos_churn(args)
    from repro.engine import TrialEngine
    from repro.faults import (
        chaos_sweep,
        render_chaos_table,
        replication_reduces_misses,
    )

    with TrialEngine(processes=args.processes) as engine:
        cells = chaos_sweep(
            intensities=args.intensities,
            replications=args.replications,
            trials=args.trials,
            row=args.row,
            algorithm=args.algorithm,
            n_updates=args.updates,
            engine=engine,
        )
    print(render_chaos_table(cells))
    shape_ok = replication_reduces_misses(cells)
    print(
        "replication reduces missed alerts: "
        f"{'YES' if shape_ok else 'NO'} (the Figure-1 claim)"
    )
    if any(cell.witness_seeds for cell in cells):
        print(
            "replay a witness with: repro trace record "
            f"{args.row} --algorithm {args.algorithm} "
            f"--updates {args.updates} --chaos <intensity> --seed <seed>"
        )
    return 0 if shape_ok else 1


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.engine import TrialEngine
    from repro.quality import (
        adaptive_matches_best_static,
        quality_json,
        quality_sweep,
        render_quality_table,
    )

    with TrialEngine(processes=args.processes) as engine:
        cells = quality_sweep(
            algorithms=args.algorithms,
            losses=args.losses,
            intensities=args.intensities,
            trials=args.trials,
            row=args.row,
            matrix=args.matrix,
            n_updates=args.updates,
            replication=args.replication,
            engine=engine,
        )
    print(render_quality_table(cells))
    gate = adaptive_matches_best_static(cells)
    print(
        "adaptive missed-alert rate <= best static at every point: "
        f"{'YES' if gate else 'NO'}"
    )
    if args.json:
        import json as json_module

        document = quality_json(
            cells,
            row=args.row,
            matrix=args.matrix,
            trials=args.trials,
            n_updates=args.updates,
        )
        with open(args.json, "w") as handle:
            json_module.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.check and not gate:
        return 1
    return 0


def _cmd_chaos_churn(args: argparse.Namespace) -> int:
    from repro.engine import TrialEngine
    from repro.faults import (
        churn_sweep,
        recovery_restores_alerts,
        render_churn_table,
    )

    with TrialEngine(processes=args.processes) as engine:
        cells = churn_sweep(
            intensities=[i for i in args.intensities if i > 0] or [1.0],
            detection_timeouts=[None, *args.detection_timeouts],
            catchup_latencies=args.catchup_latencies,
            trials=args.trials,
            row=args.row,
            algorithm=args.algorithm,
            n_updates=args.updates,
            replication=max(args.replications),
            catchup_source=args.catchup_source,
            engine=engine,
        )
    print(render_churn_table(cells))
    restored = recovery_restores_alerts(cells)
    print(
        "detection + catch-up reduces missed alerts vs crash-only: "
        f"{'YES' if restored else 'NO'}"
    )
    return 0 if restored else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_run

    scenario = _scenario_for(args.row, args.multi)
    comparison = compare_run(_trial_spec(args, "pass").run())
    print(f"scenario: {scenario.label}, seed {args.seed}")
    print(comparison.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.repro_report import generate_report

    report = generate_report(budget=args.budget, processes=args.processes)
    text = report.to_markdown()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.observability import record_trial

    spec = _spec_from_args(args)
    trace = record_trial(spec)
    out = args.out or (
        f"trace_{spec.matrix}_{args.row}_{args.algorithm}_seed{args.seed}.jsonl"
    )
    path = trace.write(out)
    print(f"recorded {len(trace.events)} events to {path}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.observability import load_trace, replay_trace

    result = replay_trace(load_trace(args.path))
    print(result.describe())
    return 0 if result.identical else 1


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.observability import load_trace, summarize_trace

    summary = summarize_trace(load_trace(args.path))
    spec = summary["spec"]
    print(f"trace: {args.path} (schema {summary['schema']})")
    print(
        f"  spec: {spec.get('matrix')}/{spec.get('row')} "
        f"algorithm={spec.get('algorithm')} seed={spec.get('seed')} "
        f"n_updates={spec.get('n_updates')} "
        f"replication={spec.get('replication')}"
    )
    print(
        f"  {summary['events']} events over {summary['duration']:g} "
        f"simulated time units, {len(summary['nodes'])} nodes"
    )
    _print_stage_counters(summary["stages"])
    metrics = summary["metrics"]
    if metrics:
        print("  metrics:")
        for key, value in metrics.items():
            print(f"    {key}: {value}")
    return 0


def _spec_from_args(args: argparse.Namespace):
    """The TrialSpec that :func:`_add_trial_options` parsed."""
    faults = None
    if args.chaos is not None:
        from repro.faults import DEFAULT_CHAOS_PROFILE

        faults = DEFAULT_CHAOS_PROFILE.scaled(args.chaos).or_none()
    membership = None
    if args.membership:
        from repro.membership import MembershipConfig

        membership = MembershipConfig(
            detection_timeout=args.detection_timeout,
            catchup_latency=args.catchup_latency,
            catchup_source=args.catchup_source,
        )
    return _trial_spec(
        args, args.algorithm, replication=args.replication, faults=faults,
        membership=membership,
    )


def _cmd_feed_record(args: argparse.Namespace) -> int:
    from repro.service import record_feed

    spec = _spec_from_args(args)
    feed = record_feed(spec)
    out = args.out or (
        f"feed_{spec.matrix}_{args.row}_{args.algorithm}_seed{args.seed}.feed"
    )
    path = feed.write(out)
    print(
        f"recorded {len(feed.deliveries)} deliveries / {feed.total_alerts} "
        f"alerts across {feed.replication} CEs to {path}"
    )
    return 0


def _feed_rejected_exits_2(command):
    """``command``, ending in one ``error: <Class>: <message>`` line on
    stderr and exit 2 when the feed is rejected: exit 1 is DIVERGED only."""

    def run(args: argparse.Namespace) -> int:
        from repro.core.wire import FrameError
        from repro.service import FeedMismatchError, FeedSchemaError, ServiceError

        try:
            return command(args)
        except (FeedSchemaError, FrameError, FeedMismatchError, ServiceError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2

    return run


@_feed_rejected_exits_2
def _cmd_feed_conform(args: argparse.Namespace) -> int:
    from repro.service import check_conformance, default_runtimes, load_feed

    feed = load_feed(args.path)
    report = check_conformance(
        feed, default_runtimes(include_service=not args.no_service)
    )
    for result in report.results:
        latency = ""
        if result.latency_ms:
            latency = (
                f"  p50={result.latency_ms['p50']:.3f}ms "
                f"p99={result.latency_ms['p99']:.3f}ms"
            )
        print(
            f"  {result.runtime:<14} digest={result.digest()[:16]} "
            f"displayed={len(result.displayed)} "
            f"verdicts={result.verdicts}{latency}"
        )
    print(f"conformance: {'IDENTICAL' if report.identical else 'DIVERGED'}")
    if not report.identical:
        print(f"  {report.explain()}")
    return 0 if report.identical else 1


@_feed_rejected_exits_2
def _cmd_feed_send(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import DirectRuntime, load_feed
    from repro.service.server import execute_feed

    feed = load_feed(args.path)
    result = asyncio.run(execute_feed(feed, args.host, args.port))
    print(
        f"service displayed {len(result.displayed)} alerts, "
        f"verdicts={result.verdicts}"
    )
    if result.latency_ms:
        print(
            f"  update→alert latency: p50={result.latency_ms['p50']:.3f}ms "
            f"p99={result.latency_ms['p99']:.3f}ms"
        )
    if args.conform:
        from repro.service.runtime import ConformanceReport

        reference = DirectRuntime().execute(feed)
        report = ConformanceReport(results=(reference, result))
        print(
            "conformance vs direct runtime: "
            f"{'IDENTICAL' if report.identical else 'DIVERGED'}"
        )
        if not report.identical:
            print(f"  {report.explain()}")
        return 0 if report.identical else 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import MonitorService, ServiceConfig

    service = MonitorService(ServiceConfig(host=args.host, port=args.port))

    async def run() -> None:
        await service.start()
        print(
            f"monitoring service listening on {service.host}:{service.port}",
            flush=True,
        )
        try:
            await service.serve_until(once=args.once)
        finally:
            counters = service.counters.as_dict()
            if counters:
                print("service counters:")
                for key, count in counters.items():
                    print(f"  {key}: {count}")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    print(f"served {service.connections_handled} connection(s)")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("AD algorithms:")
    for name in algorithm_names():
        info = algorithm_info(name)
        guarantees = []
        if info.guarantees_ordered:
            guarantees.append("ordered")
        if info.guarantees_consistent:
            guarantees.append("consistent")
        scope = "multi" if info.multi_variable else "single"
        print(f"  {name:<6} [{scope:<6}] guarantees: "
              f"{', '.join(guarantees) or '(none)'}  ({info.paper_figure})")
    print("\nscenario rows (Tables 1-3):")
    for row in ROW_ORDER:
        print(f"  {row:<16} {SINGLE_VARIABLE_SCENARIOS[row].label}")
    print("\ntable experiments:")
    for table_id in EXPECTED_GRIDS:
        print(f"  {table_id}")
    return 0


def _processes_arg(value: str) -> int | str:
    """argparse type for ``--processes``: a positive int or 'auto'."""
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"processes must be >= 1, got {count}")
    return count


def _non_negative_int(value: str) -> int:
    """argparse type for a count that may be zero."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}"
        ) from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def _add_processes(parser: argparse.ArgumentParser, what: str = "trials") -> None:
    parser.add_argument(
        "--processes",
        type=_processes_arg,
        default=1,
        help=f"fan {what} out over N worker processes ('auto' = CPU count)",
    )


def _add_catchup_source(parser: argparse.ArgumentParser, mode: str) -> None:
    parser.add_argument(
        "--catchup-source",
        choices=("peer-then-log", "peer", "log", "none"),
        default="peer-then-log",
        help=f"({mode}) where a recovering CE replays history from",
    )


def _add_trial_options(parser: argparse.ArgumentParser, what: str) -> None:
    """Every knob of one recorded trial (read by :func:`_spec_from_args`),
    plus ``--out``: the options ``trace record`` and ``feed record`` share.
    ``what`` names the artifact the command writes."""
    parser.add_argument("row", choices=list(ROW_ORDER))
    parser.add_argument("--algorithm", default="AD-1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--updates", type=int, default=30)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--multi", action="store_true")
    parser.add_argument("--out", default=None, help=f"output {what} path")
    parser.add_argument(
        "--chaos",
        type=float,
        default=None,
        metavar="INTENSITY",
        help="inject faults at this chaos intensity (default profile), so "
        "witness seeds from 'repro chaos' replay exactly",
    )
    parser.add_argument(
        "--membership",
        action="store_true",
        help="enable dynamic membership (heartbeat detection + crash "
        f"recovery with catch-up); the {what} carries the full "
        "membership surface and replays bit-identically",
    )
    parser.add_argument(
        "--detection-timeout", type=float, default=4.0,
        help="(--membership) failure-detector timeout",
    )
    parser.add_argument(
        "--catchup-latency", type=float, default=2.0,
        help="(--membership) state-transfer latency per recovery",
    )
    _add_catchup_source(parser, "--membership")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Replicated condition monitoring (PODC 2001) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="regenerate paper property tables")
    p_tables.add_argument("tables", nargs="*", help="table ids (default: all)")
    p_tables.add_argument("--trials", type=int, default=None)
    p_tables.add_argument("--updates", type=int, default=None)
    _add_processes(p_tables)
    p_tables.add_argument(
        "--counters",
        action="store_true",
        help="trace every trial and print aggregated per-stage counters",
    )
    p_tables.set_defaults(func=_cmd_tables)

    p_scenario = sub.add_parser("scenario", help="run one randomized trial")
    p_scenario.add_argument("row", choices=sorted({*ROW_ORDER, *DIVERSITY_ROWS}))
    p_scenario.add_argument("--algorithm", default="AD-1")
    p_scenario.add_argument("--seed", type=int, default=0)
    p_scenario.add_argument("--updates", type=int, default=30)
    p_scenario.add_argument("--multi", action="store_true")
    p_scenario.add_argument("--timeline", action="store_true")
    p_scenario.add_argument(
        "--counters",
        action="store_true",
        help="run under a CountersTracer and print per-stage counters",
    )
    p_scenario.set_defaults(func=_cmd_scenario)

    p_trace = sub.add_parser(
        "trace", help="record, replay and summarize JSONL run traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trec = trace_sub.add_parser(
        "record", help="run one trial under a recorder and write its trace"
    )
    _add_trial_options(p_trec, "trace")
    p_trec.set_defaults(func=_cmd_trace_record)
    p_trep = trace_sub.add_parser(
        "replay",
        help="re-execute a recorded trace; exit 0 iff bit-identical",
    )
    p_trep.add_argument("path")
    p_trep.set_defaults(func=_cmd_trace_replay)
    p_tsum = trace_sub.add_parser(
        "summarize", help="per-stage event counts and metrics of a trace"
    )
    p_tsum.add_argument("path")
    p_tsum.set_defaults(func=_cmd_trace_summarize)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided search for property violations, with "
        "optional full-simulator witness minimization",
    )
    p_fuzz.add_argument(
        "--target",
        choices=sorted(_FUZZ_TARGETS),
        default="any",
        help="property to hunt ('any' retains every violation)",
    )
    p_fuzz.add_argument("--budget", type=int, default=1000,
                        help="simulator runs to spend")
    p_fuzz.add_argument("--row", choices=list(ROW_ORDER), default="aggressive")
    p_fuzz.add_argument("--algorithm", default="AD-2")
    p_fuzz.add_argument("--multi", action="store_true")
    p_fuzz.add_argument("--updates", type=int, default=20,
                        help="reading count of every campaign spec")
    p_fuzz.add_argument("--replication", type=int, default=2)
    p_fuzz.add_argument(
        "--fuzz-seed", type=int, default=0,
        help="seed of the fuzzer's own RNG streams (campaigns replay)",
    )
    p_fuzz.add_argument("--batch", type=int, default=32,
                        help="specs scheduled per engine batch")
    _add_processes(p_fuzz, "batches")
    p_fuzz.add_argument(
        "--minimize",
        action="store_true",
        help="delta-debug findings to 1-minimal witnesses and verify "
        "each recorded trace replays bit-identically",
    )
    p_fuzz.add_argument(
        "--minimize-limit", type=_non_negative_int, default=3,
        help="findings to minimize (they are deduplicated by signature)",
    )
    p_fuzz.add_argument(
        "--out", default=None,
        help="directory for minimized witness traces (.jsonl)",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_chaos = sub.add_parser(
        "chaos",
        help="sweep fault intensity x replication: property survival "
        "rates, witness seeds, and the Figure-1 availability check",
    )
    p_chaos.add_argument(
        "--intensities",
        type=float,
        nargs="+",
        default=[0.0, 0.5, 1.0, 2.0],
        help="chaos knob values scaling the default fault profile",
    )
    p_chaos.add_argument(
        "--replications",
        type=int,
        nargs="+",
        default=[1, 2, 3],
        help="CE replication factors to compare at each intensity",
    )
    p_chaos.add_argument("--trials", type=int, default=30)
    p_chaos.add_argument("--row", choices=list(ROW_ORDER), default="non-historical")
    p_chaos.add_argument("--algorithm", default="AD-4")
    p_chaos.add_argument("--updates", type=int, default=30)
    _add_processes(p_chaos)
    p_chaos.add_argument(
        "--churn",
        action="store_true",
        help="membership mode: sweep intensity x detection timeout x "
        "catch-up latency under the CE-crash-only churn profile, "
        "reporting what detection + catch-up buys back vs the "
        "crash-without-recovery baseline",
    )
    p_chaos.add_argument(
        "--detection-timeouts",
        type=float,
        nargs="+",
        default=[2.0, 6.0],
        help="(--churn) failure-detector timeouts; the membership-off "
        "baseline is always swept alongside",
    )
    p_chaos.add_argument(
        "--catchup-latencies",
        type=float,
        nargs="+",
        default=[2.0],
        help="(--churn) state-transfer latencies per recovery",
    )
    _add_catchup_source(p_chaos, "--churn")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_quality = sub.add_parser(
        "quality",
        help="sweep alert quality (precision/recall/duplicates/latency "
        "vs ground truth) over algorithm x loss x fault intensity, "
        "with the adaptive-vs-static missed-alert gate",
    )
    p_quality.add_argument(
        "--algorithms",
        nargs="+",
        default=["AD-1", "AD-2", "AD-3", "AD-4", "adaptive"],
        help="AD algorithms to compare (same seeds per grid point)",
    )
    p_quality.add_argument(
        "--losses",
        type=float,
        nargs="+",
        default=[0.0, 0.15, 0.3],
        help="front-link loss probabilities",
    )
    p_quality.add_argument(
        "--intensities",
        type=float,
        nargs="+",
        default=[0.0, 0.5, 1.0, 2.0],
        help="chaos knob values scaling the default fault profile "
        "(includes delay spikes, so this is also the delay axis)",
    )
    p_quality.add_argument("--trials", type=int, default=20)
    p_quality.add_argument(
        "--row",
        choices=sorted({*ROW_ORDER, *DIVERSITY_ROWS}),
        default="aggressive",
        help="scenario row (historical rows separate the algorithms "
        "most; diversity rows need --matrix multi for zipfian/correlated)",
    )
    p_quality.add_argument(
        "--matrix", choices=("single", "multi"), default="single"
    )
    p_quality.add_argument("--updates", type=int, default=30)
    p_quality.add_argument("--replication", type=int, default=2)
    _add_processes(p_quality)
    p_quality.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the sweep document (axes, gate verdict, cells) as JSON",
    )
    p_quality.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the adaptive algorithm's missed-alert rate "
        "is <= the best static's at every grid point",
    )
    p_quality.set_defaults(func=_cmd_quality)

    p_feed = sub.add_parser(
        "feed", help="record, replay and conformance-check update feeds"
    )
    feed_sub = p_feed.add_subparsers(dest="feed_command", required=True)
    p_frec = feed_sub.add_parser(
        "record",
        help="run one trial and record its update feed (deliveries + "
        "arrival stamps) for service replay",
    )
    _add_trial_options(p_frec, "feed")
    p_frec.set_defaults(func=_cmd_feed_record)
    p_fcon = feed_sub.add_parser(
        "conform",
        help="replay a feed through every runtime (kernels, direct core, "
        "asyncio service); exit 0 iff all outputs are byte-identical, 1 if "
        "they diverge, 2 if the feed is rejected",
    )
    p_fcon.add_argument("path")
    p_fcon.add_argument(
        "--no-service", action="store_true",
        help="skip the asyncio service runtime (no sockets)",
    )
    p_fcon.set_defaults(func=_cmd_feed_conform)
    p_fsend = feed_sub.add_parser(
        "send", help="stream a recorded feed to a running 'repro serve'"
    )
    p_fsend.add_argument("path")
    p_fsend.add_argument("--host", default="127.0.0.1")
    p_fsend.add_argument("--port", type=int, required=True)
    p_fsend.add_argument(
        "--conform", action="store_true",
        help="also replay locally (direct runtime) and exit 0 iff the "
        "service's output is byte-identical",
    )
    p_fsend.set_defaults(func=_cmd_feed_send)

    p_serve = sub.add_parser(
        "serve", help="run the online monitoring service (asyncio runtime)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="listening port (0 = ephemeral, printed at startup)",
    )
    p_serve.add_argument(
        "--once", action="store_true",
        help="exit after serving one connection (CI smoke mode)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_list = sub.add_parser("list", help="algorithms, scenarios, tables")
    p_list.set_defaults(func=_cmd_list)

    p_compare = sub.add_parser(
        "compare", help="replay one run's arrivals through several algorithms"
    )
    p_compare.add_argument("row", choices=list(ROW_ORDER))
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--updates", type=int, default=20)
    p_compare.add_argument("--multi", action="store_true")
    p_compare.set_defaults(func=_cmd_compare)

    p_report = sub.add_parser(
        "report", help="run the full experiment suite, emit a Markdown report"
    )
    p_report.add_argument(
        "--budget",
        type=float,
        default=1.0,
        help="trial-count multiplier (0.1 = quick smoke run)",
    )
    p_report.add_argument(
        "--output", default=None, help="write the report to this file"
    )
    _add_processes(p_report, "table trials")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
