"""Multiple conditions (Appendix D).

Two constructions from the appendix:

* **Separate CEs** (Figure D-7(c)): each condition has its own replicated
  CEs; the single AD "can effectively separate the A and B alert streams
  and run one instance of the filtering algorithm against each stream" —
  :class:`~repro.multicondition.system.DemuxAD`.
* **Co-located CEs** (Figure D-7(d)): conditions hosted on one node see
  the same updates, so the pair reduces to the single combined condition
  ``C = A ∨ B`` (Figure D-8) — :class:`DisjunctionCondition`.

The module also reproduces **Example 4**: two interdependent conditions
("x hotter than y" / "y hotter than x") evaluated on different
interleavings trigger *both*, confusing the user even without
replication — see :func:`example_4`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.alert import Alert
from repro.core.condition import Condition, ExpressionCondition
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.history import HistorySnapshot
from repro.core.update import parse_trace

__all__ = [
    "DisjunctionCondition",
    "trim_histories",
    "example_4",
]


def trim_histories(
    histories: HistorySnapshot, degrees: dict[str, int]
) -> HistorySnapshot:
    """Restrict a (possibly deeper) snapshot to the given degrees.

    Used when a combined condition keeps max-degree histories but a
    constituent only looks at shallower ones: the constituent must be
    evaluated — including its conservative gap-guard — on exactly the
    depth it declares.
    """
    return HistorySnapshot(
        {var: histories[var][: degrees[var]] for var in degrees}
    )


class DisjunctionCondition(Condition):
    """``C = A ∨ B (∨ ...)``: triggers whenever any constituent triggers.

    Per-variable degree is the max over constituents; each constituent is
    evaluated on its own trimmed history view, so conservative
    constituents keep their gap semantics even when combined with deeper
    aggressive ones.  C itself is conservative only if *every*
    constituent is (a single aggressive disjunct can trigger across a
    gap).
    """

    def __init__(self, name: str, conditions: Sequence[Condition]) -> None:
        if not conditions:
            raise ValueError("disjunction needs at least one condition")
        degrees: dict[str, int] = {}
        for condition in conditions:
            for var, degree in condition.degrees.items():
                degrees[var] = max(degrees.get(var, 0), degree)
        # The combined condition applies each constituent's own guard;
        # no blanket conservative guard at the top level.
        super().__init__(name, degrees, conservative=False)
        self.conditions = tuple(conditions)

    @property
    def is_conservative(self) -> bool:  # type: ignore[override]
        return all(c.is_conservative for c in self.conditions)

    def _evaluate(self, histories: HistorySnapshot) -> bool:
        for condition in self.conditions:
            view = trim_histories(histories, condition.degrees)
            if condition.evaluate(view):
                return True
        return False


def example_4() -> tuple[list[Alert], list[Alert]]:
    """Example 4: interdependent conditions conflict without replication.

    Condition A: "reactor x has a higher temperature than reactor y";
    condition B: the converse.  Both reactors go 2000 → 2100, but A's CE
    sees the x change first while B's CE sees the y change first.  Both
    CEs trigger, and the user receives the contradictory pair.

    Returns ``(alerts_from_A, alerts_from_B)`` — both non-empty, which is
    the paradox.
    """
    cond_a = ExpressionCondition("A", H.x[0].value > H.y[0].value)
    cond_b = ExpressionCondition("B", H.y[0].value > H.x[0].value)

    x1, x2 = parse_trace("1x(2000), 2x(2100)")
    y1, y2 = parse_trace("1y(2000), 2y(2100)")

    ce_a = ConditionEvaluator(cond_a, source="CE-A")
    ce_a.ingest_all([x1, y1, x2, y2])  # sees the x rise first -> triggers

    ce_b = ConditionEvaluator(cond_b, source="CE-B")
    ce_b.ingest_all([x1, y1, y2, x2])  # sees the y rise first -> triggers

    return list(ce_a.alerts), list(ce_b.alerts)
