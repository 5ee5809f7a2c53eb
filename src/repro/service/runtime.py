"""The ``Runtime`` interface — one semantics, several execution engines.

A *runtime* consumes a recorded :class:`~repro.service.feed.UpdateFeed`
and produces the run's observable output: the displayed alert sequence
``A`` and the property verdicts.  The CE/AD semantic core (evaluate each
CE's delivery stream with a :class:`~repro.core.evaluator.ConditionEvaluator`,
merge the alert streams in arrival-stamp order, filter through the AD
algorithm) is what the paper specifies; *how* it executes — inside a
discrete-event scheduler, as straight-line code, or as asyncio tasks
behind sockets — is an engine choice that must not be observable.  Three
engines implement the interface:

* :class:`KernelRuntime` — the existing simulator kernels ("object" or
  "array"): re-executes the feed's TrialSpec and integrity-checks that
  the regenerated deliveries match the feed byte for byte.
* :class:`DirectRuntime` — the scheduler-free synchronous core; the
  smallest thing that can be right, and the reference the service is
  compared against in fast unit tests.
* :class:`~repro.service.server.AsyncioServiceRuntime` — the online
  monitoring service: real sockets, tasks, bounded queues.

:func:`check_conformance` runs a feed through all of them and compares
the *byte renderings* (:meth:`FeedResult.digest`) plus verdicts — the
differential harness the test archetype of this subsystem is built on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Protocol, runtime_checkable

from repro.accel import collector_paused
from repro.core.alert import Alert
from repro.core.serialization import alert_canonical_line
from repro.core.wire import encode_frame
from repro.service.feed import FeedMismatchError, UpdateFeed

__all__ = [
    "FeedMismatchError",
    "FeedResult",
    "Runtime",
    "KernelRuntime",
    "DirectRuntime",
    "merge_stamped",
    "ConformanceReport",
    "check_conformance",
    "default_runtimes",
]


@dataclass(frozen=True)
class FeedResult:
    """What one runtime observed while executing a feed."""

    #: Which runtime produced this (e.g. ``"kernel:array"``, ``"asyncio"``).
    runtime: str
    #: The displayed alert sequence A.
    displayed: tuple[Alert, ...]
    #: ``PropertyReport.summary`` — ordered/complete/consistent verdicts.
    verdicts: dict[str, bool | None]
    #: Observability counters (``"stage/kind/node"`` → count); engines
    #: differ here by design (the service adds ``service/...`` stages).
    counters: dict[str, int] = field(default_factory=dict, compare=False)
    #: Update→alert latency percentiles in ms (service runtime only).
    latency_ms: dict[str, float] = field(default_factory=dict, compare=False)

    def displayed_bytes(self) -> bytes:
        """The displayed sequence as concatenated canonical wire frames.

        This is the conformance carrier: two runtimes conform iff these
        byte strings are identical.
        """
        return b"".join(
            encode_frame(alert_canonical_line(alert).encode())
            for alert in self.displayed
        )

    def digest(self) -> str:
        return hashlib.sha256(self.displayed_bytes()).hexdigest()


@runtime_checkable
class Runtime(Protocol):
    """Anything that can execute an update feed to a :class:`FeedResult`."""

    name: str

    def execute(self, feed: UpdateFeed) -> FeedResult: ...


def merge_stamped(
    per_ce_alerts: tuple[tuple[Alert, ...], ...],
    stamps: tuple[tuple[tuple[float, int], ...], ...],
) -> list[Alert]:
    """Merge per-CE alert streams into the AD arrival order.

    Back links are FIFO, so the k-th stamp of CE *i* stamps the k-th
    alert CE *i* raised; sorting the stamped union by ``(time, index)``
    reproduces the scheduler's interleaving without a scheduler.

    Each CE's stamps are already sorted, but a batch merge still sorts:
    timsort finds the k runs and merges them in C.  On a 45k two-stream
    union (CPython 3.11, one Xeon vCPU) ``heapq.merge`` took 7.8 ms and
    this sort 4.3 ms.  The k-way merge belongs to
    :class:`~repro.service.consumers.StampMerge`, which ``repro serve``
    streams each socket read through, one alert at a time.
    """
    if len(per_ce_alerts) != len(stamps):
        raise FeedMismatchError(
            f"{len(per_ce_alerts)} alert streams but {len(stamps)} stamp "
            "streams"
        )
    stamped: list[tuple[tuple[float, int], Alert]] = []
    for ce_index, (alerts, ce_stamps) in enumerate(zip(per_ce_alerts, stamps)):
        if len(alerts) != len(ce_stamps):
            raise FeedMismatchError(
                f"CE{ce_index + 1} raised {len(alerts)} alerts but the feed "
                f"recorded {len(ce_stamps)} arrival stamps — the deliveries "
                "do not reproduce the recorded run"
            )
        stamped.extend(zip(ce_stamps, alerts))
    stamped.sort(key=itemgetter(0))
    return [alert for _, alert in stamped]


class KernelRuntime:
    """The discrete-event simulator as a :class:`Runtime`.

    Re-executes the feed's TrialSpec on the chosen kernel and checks
    that the regenerated run *is* the recorded feed (same deliveries,
    same stamps) — catching both tampered feeds and any determinism
    drift between recording and replay.
    """

    def __init__(self, kernel: str = "array") -> None:
        self.kernel = kernel
        self.name = f"kernel:{kernel}"

    def execute(self, feed: UpdateFeed) -> FeedResult:
        from repro.observability.tracer import CountersTracer

        tracer = CountersTracer()
        run = feed.make_spec(kernel=self.kernel).run(tracer)
        if run.received != feed.per_ce():
            raise FeedMismatchError(
                f"{self.name}: re-executing the spec delivered different "
                "update streams than the feed records"
            )
        if run.arrival_stamps() != feed.stamps:
            raise FeedMismatchError(
                f"{self.name}: re-executing the spec produced different "
                "arrival stamps than the feed records"
            )
        return FeedResult(
            runtime=self.name,
            displayed=run.displayed,
            verdicts=run.evaluate_properties().summary,
            counters=tracer.as_dict(),
        )


class DirectRuntime:
    """The semantic core run synchronously, with no scheduler at all.

    Evaluate each CE's delivery stream, merge by recorded stamps, filter
    through the AD — a dozen lines that define what every other engine
    must reproduce.
    """

    name = "direct"

    def execute(self, feed: UpdateFeed) -> FeedResult:
        from repro.core.evaluator import ConditionEvaluator
        from repro.displayers.registry import make_ad
        from repro.props.report import evaluate_run

        # Every alert lives until the verdicts are out; none is cyclic.
        with collector_paused():
            condition = feed.condition()
            streams = feed.per_ce()
            per_ce_alerts: list[tuple[Alert, ...]] = []
            for ce_index, stream in enumerate(streams):
                evaluator = ConditionEvaluator(
                    condition, source=f"CE{ce_index + 1}"
                )
                for update in stream:
                    evaluator.ingest(update)
                per_ce_alerts.append(evaluator.alerts)
            arrivals = merge_stamped(tuple(per_ce_alerts), feed.stamps)
            algorithm = make_ad(feed.spec["algorithm"], condition)
            algorithm.offer_all(arrivals)
            displayed = algorithm.output
            report = evaluate_run(condition, streams, displayed)
        return FeedResult(
            runtime=self.name,
            displayed=displayed,
            verdicts=report.summary,
        )


@dataclass(frozen=True)
class ConformanceReport:
    """The differential comparison of one feed across several runtimes."""

    results: tuple[FeedResult, ...]

    @property
    def identical(self) -> bool:
        """True iff every runtime displayed identical bytes and verdicts."""
        if not self.results:
            return True
        reference = self.results[0]
        return all(
            result.digest() == reference.digest()
            and result.verdicts == reference.verdicts
            for result in self.results[1:]
        )

    @property
    def verdicts(self) -> dict[str, bool | None]:
        return self.results[0].verdicts if self.results else {}

    def first_divergence(self) -> "dict[str, Any] | None":
        """Locate the first point where a runtime leaves the reference.

        A bare digest mismatch says *that* two runtimes diverged but not
        *where*; this walks the displayed sequences alert by alert and
        names the first runtime that differs from ``results[0]``, the
        alert index at which they part ways, each side's canonical line
        at that index (``None`` past the end of the shorter sequence)
        and the source CE of the alert present there.  Verdict-only
        divergences (identical bytes, different property decisions)
        report ``alert_index=None`` with both verdict dicts.  Returns
        ``None`` when the report is conformant.
        """
        if not self.results:
            return None
        reference = self.results[0]
        ref_lines = [
            alert_canonical_line(alert) for alert in reference.displayed
        ]
        for result in self.results[1:]:
            lines = [alert_canonical_line(alert) for alert in result.displayed]
            if lines == ref_lines:
                if result.verdicts == reference.verdicts:
                    continue
                return {
                    "runtime": result.runtime,
                    "reference": reference.runtime,
                    "alert_index": None,
                    "source": None,
                    "reference_line": None,
                    "divergent_line": None,
                    "verdicts": {
                        reference.runtime: reference.verdicts,
                        result.runtime: result.verdicts,
                    },
                }
            for index in range(max(len(ref_lines), len(lines))):
                ref_line = ref_lines[index] if index < len(ref_lines) else None
                line = lines[index] if index < len(lines) else None
                if ref_line == line:
                    continue
                displayed = (
                    reference.displayed
                    if index < len(reference.displayed)
                    else result.displayed
                )
                return {
                    "runtime": result.runtime,
                    "reference": reference.runtime,
                    "alert_index": index,
                    "source": displayed[index].source or None,
                    "reference_line": ref_line,
                    "divergent_line": line,
                }
        return None

    def explain(self) -> str:
        """One-line human verdict; names the first divergence if any."""
        divergence = self.first_divergence()
        if divergence is None:
            count = len(self.results)
            return f"conformant: {count} runtimes byte-identical"
        if divergence["alert_index"] is None:
            return (
                f"{divergence['runtime']} diverges from "
                f"{divergence['reference']}: displayed bytes identical but "
                f"verdicts differ ({divergence['verdicts']})"
            )
        where = f"alert index {divergence['alert_index']}"
        if divergence["source"]:
            where += f" (from {divergence['source']})"
        return (
            f"{divergence['runtime']} diverges from "
            f"{divergence['reference']} at {where}: "
            f"reference displayed {divergence['reference_line']!r}, "
            f"divergent displayed {divergence['divergent_line']!r}"
        )

    def summary(self) -> dict[str, Any]:
        return {
            "identical": self.identical,
            "divergence": self.first_divergence(),
            "runtimes": {
                result.runtime: {
                    "digest": result.digest(),
                    "displayed": len(result.displayed),
                    "verdicts": result.verdicts,
                }
                for result in self.results
            },
        }


def check_conformance(
    feed: UpdateFeed, runtimes: "list[Runtime] | None" = None
) -> ConformanceReport:
    """Execute ``feed`` on every runtime; compare outputs byte for byte."""
    if runtimes is None:
        runtimes = default_runtimes()
    return ConformanceReport(
        results=tuple(runtime.execute(feed) for runtime in runtimes)
    )


def default_runtimes(include_service: bool = True) -> "list[Runtime]":
    """Both kernels, the direct core and (optionally) the asyncio service."""
    runtimes: list[Runtime] = [
        KernelRuntime("object"),
        KernelRuntime("array"),
        DirectRuntime(),
    ]
    if include_service:
        from repro.service.server import AsyncioServiceRuntime

        runtimes.append(AsyncioServiceRuntime())
    return runtimes
