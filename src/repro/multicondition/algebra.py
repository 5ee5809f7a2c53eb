"""Condition algebra: conjunction and negation combinators.

Appendix D reduces co-located conditions to a single disjunction
``C = A ∨ B``; the same construction extends to the other boolean
connectives, and together they let compound monitoring policies ("alert
when overheating AND NOT in maintenance-band") be assembled from reusable
pieces while keeping each constituent's own triggering semantics on its
own history depth.

Degrees combine as the per-variable max; each constituent is evaluated on
its own trimmed history view (see :func:`repro.multicondition.combined.
trim_histories`).  Classification:

* a conjunction is conservative if *any* constituent is — one
  gap-refusing conjunct forces the whole conjunction false across a gap;
* a negation flips satisfaction but NOT conservativeness: ¬(gap ⇒ false)
  is (gap ⇒ true), i.e. the negation of a conservative condition is
  aggressive (it can trigger across a lost update), which the property
  reflects.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.condition import Condition
from repro.core.history import HistorySnapshot
from repro.multicondition.combined import trim_histories

__all__ = ["ConjunctionCondition", "NegationCondition"]


class ConjunctionCondition(Condition):
    """``C = A ∧ B (∧ …)``: triggers only when every constituent does."""

    def __init__(self, name: str, conditions: Sequence[Condition]) -> None:
        if not conditions:
            raise ValueError("conjunction needs at least one condition")
        degrees: dict[str, int] = {}
        for condition in conditions:
            for var, degree in condition.degrees.items():
                degrees[var] = max(degrees.get(var, 0), degree)
        super().__init__(name, degrees, conservative=False)
        self.conditions = tuple(conditions)

    @property
    def is_conservative(self) -> bool:  # type: ignore[override]
        # One conservative conjunct vetoes any gap-spanning trigger.
        return any(c.is_conservative for c in self.conditions)

    def _evaluate(self, histories: HistorySnapshot) -> bool:
        for condition in self.conditions:
            view = trim_histories(histories, condition.degrees)
            if not condition.evaluate(view):
                return False
        return True


class NegationCondition(Condition):
    """``C = ¬A``: triggers exactly when A does not.

    Note the classification consequence: negating a conservative
    condition yields an *aggressive* one (it evaluates true across the
    gaps the original refused), so ``is_conservative`` only holds when
    the inner condition is non-historical (where the distinction is
    vacuous).
    """

    def __init__(self, name: str, condition: Condition) -> None:
        super().__init__(name, condition.degrees, conservative=False)
        self.condition = condition

    @property
    def is_conservative(self) -> bool:  # type: ignore[override]
        return not self.is_historical

    def _evaluate(self, histories: HistorySnapshot) -> bool:
        view = trim_histories(histories, self.condition.degrees)
        return not self.condition.evaluate(view)
