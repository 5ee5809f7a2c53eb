"""Algorithm AD-4 — orderedness *and* consistency, single variable (Fig A-4).

"AD-4 removes any alert that would be removed by either Algorithm AD-2 or
AD-3."  Both constituent filters are consulted on every arrival; their
state advances only when the alert is actually displayed, so each
constituent sees exactly the displayed sequence — which is what makes the
combination maximal (Theorem 9).
"""

from __future__ import annotations

from repro.displayers.ad2 import AD2
from repro.displayers.ad3 import AD3
from repro.displayers.base import ADAlgorithm

__all__ = ["AD4"]


class AD4(ADAlgorithm):
    """Conjunction of AD-2 (orderedness) and AD-3 (consistency)."""

    name = "AD-4"

    def __init__(self, varname: str = "x") -> None:
        super().__init__()
        self.varname = varname
        self._ad2 = AD2(varname)
        self._ad3 = AD3(varname)

    def _fresh_args(self) -> tuple:
        return (self.varname,)

    @property
    def received_set(self) -> frozenset[int]:
        return self._ad3.received_set

    @property
    def missed_set(self) -> frozenset[int]:
        return self._ad3.missed_set

    def _accept(self, key: tuple) -> bool:
        return self._ad2._accept(key) and self._ad3._accept(key)

    def _record(self, key: tuple) -> None:
        self._ad2._record(key)
        self._ad3._record(key)

    def rejection_reason(self, key: tuple) -> str:
        if not self._ad2._accept(key):
            return self._ad2.rejection_reason(key)
        return self._ad3.rejection_reason(key)
