"""Algorithm AD-2 — orderedness filter for single-variable systems (Fig A-2).

    last = -1
    On receiving new alert a:
        if a.seqno.x <= last: discard a
        else: last = a.seqno.x; add a to output sequence A

AD-2 discards any alert that arrives out of (or in duplicate) sequence
order with respect to the condition's single variable, so its output is
trivially ordered.  Theorem 5 proves AD-2 is *maximally* ordered: no
orderedness-guaranteeing algorithm strictly dominates it.  The price is
completeness (Theorem 6, Example 2): in-order-generated alerts that arrive
late are lost.
"""

from __future__ import annotations

from repro.core.alert import identity_seqnos
from repro.displayers.base import ADAlgorithm

__all__ = ["AD2"]


class AD2(ADAlgorithm):
    """Drop alerts whose seqno does not strictly increase."""

    name = "AD-2"

    def __init__(self, varname: str = "x") -> None:
        super().__init__()
        self.varname = varname
        self._last = -1

    def _fresh_args(self) -> tuple:
        return (self.varname,)

    def _accept(self, key: tuple) -> bool:
        return identity_seqnos(key, self.varname)[0] > self._last

    def _record(self, key: tuple) -> None:
        self._last = identity_seqnos(key, self.varname)[0]

    def rejection_reason(self, key: tuple) -> str:
        return (
            f"seqno regression: a.seqno.{self.varname}="
            f"{identity_seqnos(key, self.varname)[0]} <= last displayed {self._last}"
        )
