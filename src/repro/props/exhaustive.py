"""Exhaustive interleaving analysis of a fixed CE-trace pair.

The merge function M is *timing dependent* (Appendix B): its output
depends on how the alert streams A1, A2 interleave at the AD.  The
randomized table experiments sample that timing space; this module
*enumerates* it.  Given what each CE received, it replays every possible
arrival interleaving through a fresh AD instance and classifies each
property as

* ``always`` — holds in every interleaving,
* ``never`` — violated in every interleaving,
* ``sometimes`` — depends on timing (with witnesses both ways).

This turns statements like "if alert a2 arrives before a1 …" (Examples
1–2) into machine-checked facts about *all* arrival orders, and lets the
tests prove per-instance claims like "no interleaving of this pair is
unordered" without trusting delay distributions.

Complexity is binomial in the stream lengths; :func:`count_merge_orders`
lets callers pre-check, and ``limit`` guards against misuse.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from math import comb

from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.core.evaluator import ConditionEvaluator
from repro.core.update import Update
from repro.displayers.base import ADAlgorithm
from repro.props.report import PropertyReport, evaluate_run

__all__ = [
    "iter_merge_orders",
    "count_merge_orders",
    "PropertyClassification",
    "ExhaustiveReport",
    "classify_trace_pair",
]


def count_merge_orders(lengths: Sequence[int]) -> int:
    """Number of distinct merge orders of streams with these lengths."""
    total = 0
    count = 1
    for length in lengths:
        total += length
        count *= comb(total, length)
    return count


def iter_merge_orders(lengths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield every merge order as a tuple of stream indices.

    Each yielded tuple has ``sum(lengths)`` entries; entry ``k`` names the
    stream whose next alert arrives in slot ``k``.  Per-stream order is
    preserved (back links are FIFO).
    """
    remaining = list(lengths)

    def generate(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if all(r == 0 for r in remaining):
            yield tuple(prefix)
            return
        for index in range(len(remaining)):
            if remaining[index] > 0:
                remaining[index] -= 1
                prefix.append(index)
                yield from generate(prefix)
                prefix.pop()
                remaining[index] += 1

    return generate([])


@dataclass(frozen=True)
class PropertyClassification:
    """How one property behaves across all interleavings."""

    holds_count: int
    violated_count: int
    #: A merge order witnessing each side, when it exists.
    holding_witness: tuple[int, ...] | None = field(compare=False, default=None)
    violating_witness: tuple[int, ...] | None = field(compare=False, default=None)

    @property
    def verdict(self) -> str:
        if self.violated_count == 0:
            return "always"
        if self.holds_count == 0:
            return "never"
        return "sometimes"


@dataclass(frozen=True)
class ExhaustiveReport:
    """Classification of all three properties over all interleavings."""

    interleavings: int
    ordered: PropertyClassification
    complete: PropertyClassification | None
    consistent: PropertyClassification


class _Tally:
    def __init__(self) -> None:
        self.holds = 0
        self.violated = 0
        self.holding_witness: tuple[int, ...] | None = None
        self.violating_witness: tuple[int, ...] | None = None
        self.checked = 0

    def add(self, holds: bool, order: tuple[int, ...]) -> None:
        self.checked += 1
        if holds:
            self.holds += 1
            if self.holding_witness is None:
                self.holding_witness = order
        else:
            self.violated += 1
            if self.violating_witness is None:
                self.violating_witness = order

    def freeze(self) -> PropertyClassification | None:
        if self.checked == 0:
            return None
        return PropertyClassification(
            self.holds, self.violated, self.holding_witness, self.violating_witness
        )


def classify_trace_pair(
    condition: Condition,
    traces: Sequence[Sequence[Update]],
    make_ad: Callable[[], ADAlgorithm],
    limit: int = 50_000,
) -> ExhaustiveReport:
    """Replay every arrival interleaving of the CE alert streams.

    ``traces`` are the update sequences each CE received; the CE stage is
    deterministic so it runs once, and only the AD merge varies.
    """
    streams: list[tuple[Alert, ...]] = []
    for index, trace in enumerate(traces):
        evaluator = ConditionEvaluator(condition, source=f"CE{index + 1}")
        evaluator.ingest_all(trace)
        streams.append(evaluator.alerts)

    lengths = [len(s) for s in streams]
    total = count_merge_orders(lengths)
    if total > limit:
        raise RuntimeError(
            f"{total} interleavings exceed limit={limit}; shorten the traces"
        )

    ordered_tally = _Tally()
    complete_tally = _Tally()
    consistent_tally = _Tally()

    for order in iter_merge_orders(lengths):
        positions = [0] * len(streams)
        arrivals: list[Alert] = []
        for stream_index in order:
            arrivals.append(streams[stream_index][positions[stream_index]])
            positions[stream_index] += 1
        ad = make_ad()
        displayed = ad.offer_all(arrivals)
        report: PropertyReport = evaluate_run(
            condition, traces, [a.identity() for a in displayed]
        )
        ordered_tally.add(bool(report.ordered), order)
        if report.complete is not None:
            complete_tally.add(bool(report.complete), order)
        if report.consistent is not None:
            consistent_tally.add(bool(report.consistent), order)

    ordered = ordered_tally.freeze()
    consistent = consistent_tally.freeze()
    assert ordered is not None and consistent is not None
    return ExhaustiveReport(
        interleavings=total,
        ordered=ordered,
        complete=complete_tally.freeze(),
        consistent=consistent,
    )
