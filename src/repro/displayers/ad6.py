"""Algorithm AD-6 — orderedness and consistency, multi-variable (Fig A-6).

"Algorithm AD-6 combines AD-5 with the multi-variable version of Algorithm
AD-3.  To extend Algorithm AD-3 to multi-variable systems, the AD keeps
two lists (Received and Missed) each for variable x and variable y."

We keep one :class:`~repro.displayers.ad3.ConflictTracker` per variable;
an alert conflicts if its history conflicts in *any* variable.  As with
AD-4, constituent state advances only for displayed alerts.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.alert import identity_shorthand
from repro.displayers.ad3 import ConflictTracker
from repro.displayers.ad5 import AD5
from repro.displayers.base import ADAlgorithm

__all__ = ["AD6"]


class AD6(ADAlgorithm):
    """Conjunction of AD-5 and the multi-variable AD-3."""

    name = "AD-6"

    def __init__(self, varnames: Iterable[str] = ("x", "y")) -> None:
        super().__init__()
        self.varnames = tuple(varnames)
        if not self.varnames:
            raise ValueError("AD-6 needs at least one variable")
        self._ad5 = AD5(self.varnames)
        self._trackers = {var: ConflictTracker(var) for var in self.varnames}

    def _fresh_args(self) -> tuple:
        return (self.varnames,)

    def received_set(self, varname: str) -> frozenset[int]:
        return frozenset(self._trackers[varname].received)

    def missed_set(self, varname: str) -> frozenset[int]:
        return frozenset(self._trackers[varname].missed)

    def _accept(self, key: tuple) -> bool:
        if not self._ad5._accept(key):
            return False
        return not any(t.conflicts(key) for t in self._trackers.values())

    def _record(self, key: tuple) -> None:
        self._ad5._record(key)
        for tracker in self._trackers.values():
            tracker.record(key)

    def rejection_reason(self, key: tuple) -> str:
        if not self._ad5._accept(key):
            return self._ad5.rejection_reason(key)
        for var, tracker in self._trackers.items():
            if tracker.conflicts(key):
                return (
                    f"history conflict in {var}: Received/Missed state "
                    f"contradicts {identity_shorthand(key)}"
                )
        # Reached only when called off-contract (the alert would in fact
        # be accepted); say so concretely rather than naming the algorithm.
        return f"no rejection: {self.name} would accept {identity_shorthand(key)}"
