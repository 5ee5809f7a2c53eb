"""Canned traces: every worked example in the paper, transcribed exactly.

Each ``example_*``/``theorem_*`` function returns a :class:`PaperExample`
bundling the condition, the per-CE received traces (U1, U2), the alert
streams the CEs generate (A1, A2) and helpers to replay a chosen arrival
interleaving through an AD algorithm.  The integration tests assert the
paper's stated outcomes on these; the examples/ scripts narrate them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.alert import Alert
from repro.core.condition import Condition, PredicateCondition, c1, c2, c3, cm
from repro.core.evaluator import ConditionEvaluator
from repro.core.update import Update, parse_trace
from repro.displayers.base import ADAlgorithm

__all__ = [
    "PaperExample",
    "interleave",
    "example_1",
    "example_2",
    "example_3_alerts",
    "theorem_3_example",
    "theorem_4_example",
    "theorem_10_example",
    "lemma_6_example",
]


def interleave(streams: Sequence[Sequence[Alert]], order: Sequence[int]) -> list[Alert]:
    """Merge alert streams into one arrival sequence.

    ``order`` names, per arrival slot, which stream delivers next; each
    stream's internal order is preserved (back links are FIFO).  E.g.
    ``interleave([A1, A2], [0, 1, 0])`` delivers A1[0], A2[0], A1[1].
    """
    positions = [0] * len(streams)
    arrivals: list[Alert] = []
    for stream_index in order:
        pos = positions[stream_index]
        if pos >= len(streams[stream_index]):
            raise ValueError(
                f"stream {stream_index} exhausted at arrival slot {len(arrivals)}"
            )
        arrivals.append(streams[stream_index][pos])
        positions[stream_index] = pos + 1
    for stream_index, pos in enumerate(positions):
        if pos != len(streams[stream_index]):
            raise ValueError(
                f"order does not consume stream {stream_index} fully "
                f"({pos} of {len(streams[stream_index])})"
            )
    return arrivals


@dataclass(frozen=True)
class PaperExample:
    """A fully specified replicated-run instance from the paper."""

    name: str
    condition: Condition
    #: Per-CE received update traces (U1, U2, ...).
    traces: tuple[tuple[Update, ...], ...]
    description: str = ""
    #: Per-CE alert streams, computed by replaying the traces.
    alert_streams: tuple[tuple[Alert, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        streams = []
        for index, trace in enumerate(self.traces):
            evaluator = ConditionEvaluator(self.condition, source=f"CE{index + 1}")
            evaluator.ingest_all(trace)
            streams.append(evaluator.alerts)
        object.__setattr__(self, "alert_streams", tuple(streams))

    def arrivals(self, order: Sequence[int]) -> list[Alert]:
        """One specific interleaving of the CE alert streams at the AD."""
        return interleave(self.alert_streams, order)

    def display(self, algorithm: ADAlgorithm, order: Sequence[int]) -> list[Alert]:
        """Replay an interleaving through a fresh copy of ``algorithm``."""
        copy = algorithm.fresh()
        return copy.offer_all(self.arrivals(order))


def example_1() -> PaperExample:
    """Example 1 (§3): c1 over ⟨1x(2900), 2x(3100), 3x(3200)⟩; 2x lost at CE2.

    A1 = ⟨a(2x), a(3x)⟩, A2 = ⟨a(3x)⟩; under AD-1 with arrival order
    a1, a3, a2 the displayed A = ⟨a1, a3⟩ — two alerts reach the user.
    """
    return PaperExample(
        name="Example 1",
        condition=c1(),
        traces=(
            tuple(parse_trace("1x(2900), 2x(3100), 3x(3200)")),
            tuple(parse_trace("1x(2900), 3x(3200)")),
        ),
        description="Duplicate elimination keeps one copy of a(3x).",
    )


def example_2() -> PaperExample:
    """Example 2 (§4.2): c1 with U1 = ⟨1x(3100)⟩ and U2 = ⟨2x(3200)⟩.

    If a2 reaches the AD first, AD-2 filters a1 — the system is
    incomplete, since T(U1 ⊔ U2) has both alerts.
    """
    return PaperExample(
        name="Example 2",
        condition=c1(),
        traces=(
            tuple(parse_trace("1x(3100)")),
            tuple(parse_trace("2x(3200)")),
        ),
        description="AD-2 trades completeness for orderedness.",
    )


def example_3_alerts() -> tuple[Condition, Alert, Alert]:
    """Example 3 (§4.3): the two conflicting degree-2 alerts.

    a1 triggered on updates 1x and 3x (2x missed by CE1); a2 on 2x and 3x.
    AD-3 passes a1, records 2 as Missed, then filters a2.  We realise the
    pair with c2 over concrete temperatures.
    """
    condition = c2()
    ce1 = ConditionEvaluator(condition, source="CE1")
    ce1.ingest_all(parse_trace("1x(1000), 3x(1300)"))
    ce2 = ConditionEvaluator(condition, source="CE2")
    ce2.ingest_all(parse_trace("2x(1050), 3x(1300)"))
    (a1,) = ce1.alerts
    (a2,) = ce2.alerts
    return condition, a1, a2


def theorem_3_example() -> PaperExample:
    """Theorem 3's counterexample: c3 with disjoint halves at the two CEs.

    U1 = ⟨1(1000), 2(1500)⟩ and U2 = ⟨3(2000), 4(2500)⟩ give A1 = ⟨a(2)⟩,
    A2 = ⟨a(4)⟩; T(U1 ⊔ U2) = ⟨a(2), a(3), a(4)⟩, so the system is
    incomplete, and the arrival order a4, a2 shows it unordered.
    """
    return PaperExample(
        name="Theorem 3 counterexample",
        condition=c3(),
        traces=(
            tuple(parse_trace("1x(1000), 2x(1500)")),
            tuple(parse_trace("3x(2000), 4x(2500)")),
        ),
        description="Conservative triggering: consistent, not complete/ordered.",
    )


def theorem_4_example() -> PaperExample:
    """Theorem 4's counterexample: c2 with U2 missing update 2.

    U = ⟨1(400), 2(700), 3(720)⟩; U1 = U triggers on 2 (700−400 > 200);
    U2 = ⟨1, 3⟩ triggers on 3 (720−400 > 200).  No single input sequence
    can produce both alerts: alert 2 needs update 2 present, alert 3 needs
    it absent — the system is inconsistent.
    """
    return PaperExample(
        name="Theorem 4 counterexample",
        condition=c2(),
        traces=(
            tuple(parse_trace("1x(400), 2x(700), 3x(720)")),
            tuple(parse_trace("1x(400), 3x(720)")),
        ),
        description="Aggressive triggering yields extraneous alerts.",
    )


def theorem_10_example() -> PaperExample:
    """Theorem 10's two-reactor counterexample (no losses, different
    interleavings).

    Ux = ⟨1x(1000), 2x(1200)⟩, Uy = ⟨1y(1050), 2y(1150)⟩; CE1 sees all of
    x first, CE2 all of y first.  CE1 emits a(2x,1y), CE2 emits a(1x,2y);
    under AD-1 both display and A is neither ordered nor consistent.
    """
    x1, x2 = parse_trace("1x(1000), 2x(1200)")
    y1, y2 = parse_trace("1y(1050), 2y(1150)")
    return PaperExample(
        name="Theorem 10 counterexample",
        condition=cm(),
        traces=(
            (x1, x2, y1, y2),
            (y1, y2, x1, x2),
        ),
        description="Interleaving divergence alone breaks multi-variable systems.",
    )


def lemma_6_example() -> PaperExample:
    """Lemma 6's counterexample: AD-5 (indeed any filter of these alerts)
    cannot be complete.

    The condition is satisfied by exactly the pairs (8x, 2y), (8x, 3y) and
    (8x, 4y).  CE1 sees ⟨8x, 2y, 9x, 3y, 4y⟩ and alerts on (8x, 2y); CE2
    sees ⟨2y, 3y, 7x, 4y, 8x⟩ and alerts on (8x, 4y).  No interleaving UV
    generates those two alerts without also generating (8x, 3y).
    """
    satisfied = {(8, 2), (8, 3), (8, 4)}

    def predicate(histories) -> bool:
        if isinstance(histories, dict):  # pragma: no cover - defensive
            raise TypeError("expected a HistorySnapshot")
        x_head = histories["x"][0]
        y_head = histories["y"][0]
        return (x_head.seqno, y_head.seqno) in satisfied

    condition = PredicateCondition(
        "lemma6", {"x": 1, "y": 1}, predicate, conservative=False
    )

    def u(text: str) -> Update:
        return parse_trace(text)[0]

    return PaperExample(
        name="Lemma 6 counterexample",
        condition=condition,
        traces=(
            (u("8x"), u("2y"), u("9x"), u("3y"), u("4y")),
            (u("2y"), u("3y"), u("7x"), u("4y"), u("8x")),
        ),
        description="Multi-variable systems under AD-5 are incomplete.",
    )
