"""Algorithm AD-3 — consistency filter for single-variable systems (Fig A-3).

    Received = {};  Missed = {}
    On receiving new alert a:
        if Conflicts(a.history): discard a
        else: UpdateState(a.history); add a to output sequence A

    Conflicts(H):
        any s in Hx with s in Missed            -> True
        any s in SpanningSet(Hx) \\ Hx with s in Received -> True
        otherwise False

    UpdateState(H):
        Received += Hx
        Missed   += SpanningSet(Hx) - Hx

The AD refuses to display two alerts whose histories place some update in
a "conflicting state" — required received by one, required missed by the
other.  The displayed sequence is then explainable by a single input
``U′ = Received ⊑ U1 ⊔ U2``, which is exactly the consistency property.
Theorem 7 proves AD-3 maximally consistent; Theorem 8 shows the cost
(AD-1 > AD-3).

Implementation note: the paper's pseudo-code for AD-3 does not test for
*exact duplicates* — a duplicate's history re-asserts facts already in
``Received`` and never conflicts.  Taken literally it would therefore
display duplicates that AD-1 removes, contradicting the proof of
Theorem 8 ("AD-3 filters out at least all the alerts filtered by AD-1").
We follow the theorem: AD-3 additionally performs AD-1's duplicate
suppression.  This is also what Section 2 expects of any AD ("the AD may
need to suppress duplicate alerts").

The per-variable machinery lives in :class:`ConflictTracker` so that AD-6
can reuse it for the multi-variable extension of Figure A-6.
"""

from __future__ import annotations

from repro.core.alert import identity_shorthand
from repro.core.sequences import history_gaps
from repro.displayers.base import ADAlgorithm

__all__ = ["AD3", "ConflictTracker"]


class ConflictTracker:
    """Received/Missed bookkeeping for one variable."""

    def __init__(self, varname: str) -> None:
        self.varname = varname
        self.received: set[int] = set()
        self.missed: set[int] = set()

    def conflicts(self, key: tuple) -> bool:
        """Would displaying the alert identified by ``key`` put some seqno
        in a conflicting state?  (An alert without this variable cannot.)"""
        for var, history in key[1]:
            if var == self.varname:
                if not self.missed.isdisjoint(history):
                    return True
                return not self.received.isdisjoint(history_gaps(history))
        return False

    def record(self, key: tuple) -> None:
        """Fold an accepted alert's history into Received/Missed."""
        for var, history in key[1]:
            if var == self.varname:
                self.received.update(history)
                self.missed |= history_gaps(history)
                return

    def snapshot(self) -> tuple[frozenset[int], frozenset[int]]:
        """(Received, Missed) — the AD's U′ witness components."""
        return frozenset(self.received), frozenset(self.missed)


class AD3(ADAlgorithm):
    """Received/Missed conflict filtering plus duplicate suppression."""

    name = "AD-3"

    def __init__(self, varname: str = "x") -> None:
        super().__init__()
        self.varname = varname
        self._tracker = ConflictTracker(varname)
        self._seen: set[tuple] = set()

    def _fresh_args(self) -> tuple:
        return (self.varname,)

    @property
    def received_set(self) -> frozenset[int]:
        """The AD's Received set — the witness U′ for consistency proofs."""
        return frozenset(self._tracker.received)

    @property
    def missed_set(self) -> frozenset[int]:
        return frozenset(self._tracker.missed)

    def _accept(self, key: tuple) -> bool:
        if key in self._seen:
            return False
        return not self._tracker.conflicts(key)

    def _record(self, key: tuple) -> None:
        self._seen.add(key)
        self._tracker.record(key)

    def rejection_reason(self, key: tuple) -> str:
        shorthand = identity_shorthand(key)
        if key in self._seen:
            return f"duplicate: history set of {shorthand} already displayed"
        return (
            f"history conflict in {self.varname}: Received/Missed state "
            f"contradicts {shorthand}"
        )
