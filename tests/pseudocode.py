"""Literal transcriptions of the paper's AD pseudo-code (Appendix A).

Each function here follows the corresponding figure line by line —
mutable state passed explicitly, the same variable names, no
clean-ups — so the production classes in :mod:`repro.displayers` can be
*differentially tested* against the paper's own text
(``tests/unit/test_pseudocode_conformance.py``).  A test oracle, so it
lives beside the tests rather than in the package.

Known, deliberate divergence: Figure A-3's AD-3 does not test for exact
duplicates, which contradicts Theorem 8 (AD-1 ≥ AD-3 requires AD-3 to
filter everything AD-1 filters).  The production :class:`~repro.
displayers.ad3.AD3` follows the theorem; :func:`ad3_step` follows the
figure.  The conformance tests assert both facts: the implementations
agree on duplicate-free streams, and the literal pseudo-code breaks the
domination theorem on streams with duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.alert import Alert

__all__ = [
    "AD1State",
    "AD2State",
    "AD3State",
    "AD5State",
    "ad1_step",
    "ad2_step",
    "ad3_step",
    "ad5_step",
    "spanning_set",
]


def spanning_set(values: set[int]) -> set[int]:
    """Figure A-3's SpanningSet: consecutive ints between min and max."""
    if not values:
        return set()
    return set(range(min(values), max(values) + 1))


# -- Figure A-1: Algorithm AD-1 (Exact Duplicate Removal) ---------------------

@dataclass
class AD1State:
    """``P = {}  // the empty set``"""

    P: set = field(default_factory=set)


def ad1_step(state: AD1State, a: Alert) -> bool:
    """
    On receiving new alert a:
        if a is in P: discard a
        else: P = P + {a}; add a to output sequence A
    """
    if a in state.P:
        return False
    state.P = state.P | {a}
    return True


# -- Figure A-2: Algorithm AD-2 -------------------------------------------------

@dataclass
class AD2State:
    """``last = -1``"""

    last: int = -1


def ad2_step(state: AD2State, a: Alert, varname: str = "x") -> bool:
    """
    On receiving new alert a:
        if a.seqno.x <= last: discard a
        else: last = a.seqno.x; add a to output sequence A
    """
    if a.seqno(varname) <= state.last:
        return False
    state.last = a.seqno(varname)
    return True


# -- Figure A-3: Algorithm AD-3 -------------------------------------------------

@dataclass
class AD3State:
    """``Received = {};  Missed = {}``"""

    Received: set = field(default_factory=set)
    Missed: set = field(default_factory=set)


def _ad3_conflicts(state: AD3State, Hx: set[int]) -> bool:
    """
    Conflicts(H):
        foreach sequence number s in Hx:
            if (s in Missed) return True
        foreach s in SpanningSet(Hx):
            if (s not in Hx AND s in Received) return True
        return False
    """
    for s in Hx:
        if s in state.Missed:
            return True
    for s in spanning_set(Hx):
        if s not in Hx and s in state.Received:
            return True
    return False


def ad3_step(state: AD3State, a: Alert, varname: str = "x") -> bool:
    """
    On receiving new alert a:
        if Conflicts(a.history): discard a
        else: UpdateState(a.history); add a to output sequence A

    UpdateState(H):
        Received = Received + Hx
        Missed = Missed + (SpanningSet(Hx) - Hx)
    """
    Hx = set(a.histories.seqnos(varname))
    if _ad3_conflicts(state, Hx):
        return False
    state.Received = state.Received | Hx
    state.Missed = state.Missed | (spanning_set(Hx) - Hx)
    return True


# -- Figure A-5: Algorithm AD-5 -------------------------------------------------

@dataclass
class AD5State:
    """``lastx = -1;  lasty = -1``"""

    lastx: int = -1
    lasty: int = -1


def ad5_step(state: AD5State, a: Alert, var_x: str = "x", var_y: str = "y") -> bool:
    """
    Conflicts(a):
        if (a.seqno.x < lastx OR a.seqno.y < lasty) return True  // conflict
        if (a.seqno.x == lastx AND a.seqno.y == lasty) return True  // dup
        return False
    UpdateState(a): lastx = a.seqno.x; lasty = a.seqno.y
    """
    if a.seqno(var_x) < state.lastx or a.seqno(var_y) < state.lasty:
        return False
    if a.seqno(var_x) == state.lastx and a.seqno(var_y) == state.lasty:
        return False
    state.lastx = a.seqno(var_x)
    state.lasty = a.seqno(var_y)
    return True
