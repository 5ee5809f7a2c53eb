"""Algorithm AD-1 — exact duplicate removal (Figure A-1).

    P = {}                      // the empty set
    On receiving new alert a:
        if a is in P: discard a
        else: P = P + {a}; add a to output sequence A

Two alerts are identical iff their history sets H are the same.  AD-1 is
the baseline algorithm of Section 3: it guarantees none of the three
properties on its own (Table 1) but dominates every other algorithm in
the paper (Theorems 6 and 8) — it filters the fewest alerts.
"""

from __future__ import annotations

from repro.core.alert import identity_shorthand
from repro.displayers.base import ADAlgorithm

__all__ = ["AD1"]


class AD1(ADAlgorithm):
    """Exact duplicate removal."""

    name = "AD-1"

    def __init__(self) -> None:
        super().__init__()
        self._seen: set[tuple] = set()

    def _accept(self, key: tuple) -> bool:
        return key not in self._seen

    def _record(self, key: tuple) -> None:
        self._seen.add(key)

    def rejection_reason(self, key: tuple) -> str:
        return f"duplicate: history set of {identity_shorthand(key)} already displayed"
