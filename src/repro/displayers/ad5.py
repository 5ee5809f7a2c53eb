"""Algorithm AD-5 — orderedness filter for multi-variable systems (Fig A-5).

    lastx = -1;  lasty = -1
    On receiving new alert a:
        if Conflicts(a): discard a
        else: UpdateState(a); add a to output sequence A

    Conflicts(a):
        a.seqno.x < lastx OR a.seqno.y < lasty   -> True  (inversion)
        a.seqno.x == lastx AND a.seqno.y == lasty -> True  (duplicate)
        otherwise False

    UpdateState(a): lastx = a.seqno.x; lasty = a.seqno.y

The paper's pseudo-code assumes two variables but notes the algorithm
"can be easily extended" — this implementation handles any number: an
alert is discarded if its seqno regresses in *any* variable, or if it
equals the recorded seqno in *every* variable (duplicate).

Lemma 4 shows the output is ordered w.r.t. every variable; Lemma 5 shows
the system is additionally consistent unless the condition is historical
and aggressive; Lemma 6 shows it is never complete (non-trivially).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.alert import identity_seqnos
from repro.displayers.base import ADAlgorithm

__all__ = ["AD5"]


class AD5(ADAlgorithm):
    """Per-variable monotone seqno filter for multi-variable conditions."""

    name = "AD-5"

    def __init__(self, varnames: Iterable[str] = ("x", "y")) -> None:
        super().__init__()
        self.varnames = tuple(varnames)
        if not self.varnames:
            raise ValueError("AD-5 needs at least one variable")
        self._last = {var: -1 for var in self.varnames}

    def _fresh_args(self) -> tuple:
        return (self.varnames,)

    def _accept(self, key: tuple) -> bool:
        # One pass over the key, reading each watched variable's head once.
        last = self._last
        watched = 0
        inverted = False
        duplicate = True
        for var, seqnos in key[1]:
            previous = last.get(var)
            if previous is None:
                continue  # a variable this filter does not watch
            watched += 1
            head = seqnos[0]
            if head != previous:
                duplicate = False
                if head < previous:
                    inverted = True  # would invert the order of this variable
        if watched != len(last):
            held = dict(key[1])
            for var in self.varnames:
                if var not in held:
                    raise KeyError(var)
        # Equal to the last displayed in every variable: a duplicate.
        return not (inverted or duplicate)

    def _record(self, key: tuple) -> None:
        last = self._last
        for var, seqnos in key[1]:
            if var in last:
                last[var] = seqnos[0]

    def rejection_reason(self, key: tuple) -> str:
        for var in self.varnames:
            head = identity_seqnos(key, var)[0]
            if head < self._last[var]:
                return (
                    f"seqno inversion in {var}: a.seqno.{var}="
                    f"{head} < last displayed {self._last[var]}"
                )
        return "duplicate: seqnos equal last displayed alert in every variable"
