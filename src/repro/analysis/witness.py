"""Counterexample extraction and minimization.

The table benchmarks witness every ✗ cell with a seed.  This module turns
such a witness into something a human can read — ideally as small as the
hand-crafted counterexamples in the paper's proofs.

:func:`shrink_counterexample` performs greedy delta-debugging on the
*inputs* of a violation: it repeatedly deletes CE-received updates and
replays the pipeline (CE evaluation → a fixed arrival interleaving → the
AD algorithm → the property checker), keeping any deletion that preserves
the violation.  The result is a 1-minimal :class:`Counterexample` — no
single remaining update can be removed — typically 2–4 updates per CE,
directly comparable to the paper's examples.

The replay model is deliberately simpler than the full simulator: a
counterexample is defined by *what each CE received* and *in which order
alerts reached the AD*, which is exactly the information the paper's own
proofs specify.  Arrival order is preserved as a merge pattern over the
CE alert streams and re-projected after each deletion.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.components.system import RunResult
from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.evaluator import ConditionEvaluator
from repro.core.update import Update, format_trace
from repro.displayers.base import ADAlgorithm
from repro.props.report import PropertyReport, evaluate_run

__all__ = [
    "Counterexample",
    "Violation",
    "find_violation",
    "violates",
    "replay",
    "shrink_counterexample",
    "counterexample_from_run",
]

#: Which property a counterexample violates.
Violation = str  # "ordered" | "complete" | "consistent"

_VALID_VIOLATIONS = ("ordered", "complete", "consistent")


@dataclass(frozen=True)
class Counterexample:
    """A self-contained, replayable property violation."""

    condition: Condition
    violation: Violation
    #: What each CE received (U_1, U_2, ...).
    traces: tuple[tuple[Update, ...], ...]
    #: Arrival pattern at the AD: index of the CE whose next alert arrives.
    arrival_pattern: tuple[int, ...]
    #: AD algorithm name (registry key) the violation occurred under.
    ad_algorithm: str
    #: The displayed sequence that violates the property.
    displayed: tuple[Alert, ...]

    def describe(self) -> str:
        """A paper-style, human-readable rendering."""
        lines = [
            f"Counterexample: {self.violation} violated under {self.ad_algorithm}",
            f"condition: {self.condition.name}",
        ]
        for index, trace in enumerate(self.traces):
            lines.append(f"  U{index + 1} = {format_trace(trace, with_values=True)}")
        lines.append(
            "  arrival order: "
            + ", ".join(f"CE{i + 1}" for i in self.arrival_pattern)
        )
        lines.append(
            "  displayed A = <"
            + ", ".join(a.shorthand() for a in self.displayed)
            + ">"
        )
        return "\n".join(lines)

    @property
    def total_updates(self) -> int:
        return sum(len(t) for t in self.traces)


def find_violation(report: PropertyReport) -> Violation | None:
    """The most severe violated property in a report, or None."""
    if report.consistent is not None and not report.consistent:
        return "consistent"
    if report.complete is not None and not report.complete:
        return "complete"
    if not report.ordered:
        return "ordered"
    return None


def violates(report: PropertyReport, target: Violation) -> bool:
    """True iff the report *decides* ``target`` and decides it violated.

    A skipped or undecided checker (summary value ``None``) is never a
    violation — the shrinker and fuzzer must not chase instances whose
    verdict silently flipped to "too big to check".
    """
    if target not in _VALID_VIOLATIONS:
        raise ValueError(f"unknown violation {target!r}")
    return report.summary[target] is False


def replay(
    condition: Condition,
    traces: Sequence[Sequence[Update]],
    arrival_pattern: Sequence[int],
    make_ad: Callable[[], ADAlgorithm],
) -> tuple[tuple[Alert, ...], PropertyReport]:
    """Re-run CE evaluation + AD filtering for given inputs.

    The arrival pattern is interpreted leniently: entries naming a CE
    whose alert stream is exhausted are skipped, and leftover alerts are
    appended in CE order — deletion of updates changes how many alerts
    each CE emits, and the pattern must keep making sense as the inputs
    shrink.
    """
    streams: list[list[Alert]] = []
    for index, trace in enumerate(traces):
        evaluator = ConditionEvaluator(condition, source=f"CE{index + 1}")
        evaluator.ingest_all(trace)
        streams.append(list(evaluator.alerts))

    positions = [0] * len(streams)
    arrivals: list[Alert] = []
    for ce_index in arrival_pattern:
        if ce_index < len(streams) and positions[ce_index] < len(streams[ce_index]):
            arrivals.append(streams[ce_index][positions[ce_index]])
            positions[ce_index] += 1
    for ce_index, stream in enumerate(streams):
        arrivals.extend(stream[positions[ce_index]:])

    ad = make_ad()
    displayed = tuple(ad.offer_all(arrivals))
    report = evaluate_run(condition, traces, [a.identity() for a in displayed])
    return displayed, report


def counterexample_from_run(
    run: RunResult, target: Violation | None = None
) -> Counterexample | None:
    """Extract a (not yet minimized) counterexample from a simulator run.

    Returns None if the run violates nothing — or, when ``target`` names
    a specific property, if *that* property is not violated (a run may
    violate several at once; the fuzzer wants the one it was aimed at).
    The arrival pattern is the run's per-arrival CE index column.
    """
    report = run.evaluate_properties()
    if target is not None:
        violation = target if violates(report, target) else None
    else:
        violation = find_violation(report)
    if violation is None:
        return None
    return Counterexample(
        condition=run.condition,
        violation=violation,
        traces=tuple(tuple(t) for t in run.received),
        arrival_pattern=run.arrival_ces,
        ad_algorithm=run.config.ad_algorithm,
        displayed=run.displayed,
    )


def _delete_candidates(traces: Sequence[Sequence[Update]]):
    """All (ce_index, update_index) positions, largest traces first."""
    order = sorted(
        range(len(traces)), key=lambda i: len(traces[i]), reverse=True
    )
    for ce_index in order:
        for update_index in range(len(traces[ce_index])):
            yield ce_index, update_index


def shrink_counterexample(
    counterexample: Counterexample,
    make_ad: Callable[[], ADAlgorithm],
    max_passes: int = 10,
) -> Counterexample:
    """Greedy 1-minimal shrink: delete updates while the violation persists.

    ``make_ad`` must build a fresh instance of the same AD algorithm the
    violation occurred under.  Each deletion candidate is replayed in
    full; a deletion is kept only if the *same* property is still
    violated.  Passes repeat until a fixpoint (no single deletion keeps
    the violation) or ``max_passes``.
    """
    if counterexample.violation not in _VALID_VIOLATIONS:
        raise ValueError(f"unknown violation {counterexample.violation!r}")

    traces = [list(t) for t in counterexample.traces]
    pattern = counterexample.arrival_pattern
    condition = counterexample.condition
    target = counterexample.violation
    best_displayed = counterexample.displayed

    for _ in range(max_passes):
        shrunk = False
        for ce_index, update_index in list(_delete_candidates(traces)):
            if update_index >= len(traces[ce_index]):
                continue
            candidate = [list(t) for t in traces]
            del candidate[ce_index][update_index]
            try:
                displayed, report = replay(condition, candidate, pattern, make_ad)
            except Exception:
                continue  # deletion produced an invalid run; skip it
            if find_violation(report) == target:
                traces = candidate
                best_displayed = displayed
                shrunk = True
        if not shrunk:
            break

    return Counterexample(
        condition=condition,
        violation=target,
        traces=tuple(tuple(t) for t in traces),
        arrival_pattern=pattern,
        ad_algorithm=counterexample.ad_algorithm,
        displayed=best_displayed,
    )
