"""Consistency — property 3 of Section 3.1 / Appendix C.

A replicated system is *consistent* if for every alert sequence A it
produces there exists a ``U′`` with ``ΦA ⊆ ΦT(U′)`` and ``U′ ⊑ U1 ⊔ U2``
(single variable) or ``U′ ⊑ UV`` for an interleaving UV of the combined
per-variable updates (multi-variable, Appendix C).  Intuitively: the user
could have received this alert set from *some* non-replicated system fed
a subset of the combined inputs — no "extraneous" alerts.

Two checkers, one per condition shape:

* :func:`check_consistency_single` — exact for single-variable conditions,
  linear time.  It is the constraint system from the proof of Theorem 7:
  each alert requires its history seqnos *received* and the gaps inside
  its history span *missed*; A is consistent iff no seqno is required
  both ways.  (The alert's own trigger truth is free: the emitting CE
  evaluated the condition on exactly that history.)
* :func:`check_consistency_multi` — exact for multi-variable conditions,
  polynomial time.  It is the precedence-graph construction from the
  proof of Lemma 5: alert a with seqnos (sx, sy, …) is in T(UV) iff sx
  precedes (sy+1) of y, etc.; A is consistent iff per-variable
  membership is satisfiable and the constraint graph (plus per-variable
  chains) is acyclic.  Two layers: one linear pass decides membership
  and whether A is ordered — an ordered A provably has an acyclic graph
  — and the graph is built only for an unordered A.

The exhaustive witness search that cross-validates both is a test
oracle (``tests/conftest.py``).
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.alert import identity_seqnos, identity_shorthand
from repro.core.sequences import history_gaps
from repro.core.update import Update

__all__ = [
    "ConsistencyResult",
    "check_consistency_single",
    "check_consistency_multi",
]


@dataclass(frozen=True)
class ConsistencyResult:
    """Verdict plus a witness (on success) or a conflict (on failure)."""

    consistent: bool
    #: On success: the required-received set used as U′ — seqnos for the
    #: single-variable checker, (var, seqno) pairs for the multi-variable one.
    witness_received: frozenset | None = None
    #: On failure: a human-readable description of the first conflict found.
    conflict: str | None = None
    #: On success for the exhaustive test oracle: an explicit U′ sequence.
    witness_sequence: tuple[Update, ...] | None = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.consistent


def check_consistency_single(
    keys: Sequence[tuple],
    varname: str | None = None,
) -> ConsistencyResult:
    """Exact single-variable consistency check (Theorem 7's construction)
    of A, given as its alerts' identity keys.

    ``varname`` defaults to the single variable of the first alert.  An
    empty A is trivially consistent.
    """
    if not keys:
        return ConsistencyResult(True, witness_received=frozenset())
    if varname is None:
        variables = tuple([var for var, _ in keys[0][1]])
        if len(variables) != 1:
            raise ValueError(
                "check_consistency_single needs a single-variable condition; "
                f"alert has variables {variables}"
            )
        varname = variables[0]

    received: set[int] = set()
    missed: set[int] = set()
    for index, key in enumerate(keys):
        conflict = constrain_single(
            received, missed, index, key, identity_seqnos(key, varname)
        )
        if conflict is not None:
            return ConsistencyResult(False, conflict=conflict)
    return ConsistencyResult(True, witness_received=frozenset(received))


def constrain_single(
    received: set[int],
    missed: set[int],
    index: int,
    key: tuple,
    history: tuple[int, ...],
) -> str | None:
    """One step of :func:`check_consistency_single`: alert #``index`` of A,
    identified by ``key`` and whose history is the seqno tuple
    ``history``, requires ``history`` received and its gaps missed.
    Returns the conflict sentence when an earlier alert required one of
    them the other way (and leaves both sets as they were); otherwise adds
    them and returns None."""
    if not missed.isdisjoint(history):
        seqno = min(missed.intersection(history))
        return (
            f"alert #{index} {identity_shorthand(key)} requires update "
            f"{seqno} received, but an earlier alert requires it missed"
        )
    gaps = history_gaps(history)
    if gaps:
        if not received.isdisjoint(gaps):
            seqno = min(received & gaps)
            return (
                f"alert #{index} {identity_shorthand(key)} requires update "
                f"{seqno} missed, but an earlier alert requires it received"
            )
        missed |= gaps
    received.update(history)
    return None


def check_consistency_multi(
    keys: Sequence[tuple],
    variables: Sequence[str],
) -> ConsistencyResult:
    """Exact multi-variable consistency check (historical or not) of A,
    given as its alerts' identity keys.

    A witness ``U′ ⊑ UV`` may drop updates, so w.l.o.g. take U′ to contain
    exactly the updates *required* by the alerts' histories — dropping
    anything else only removes constraints.  A is then consistent iff

    1. **membership** is satisfiable per variable: no seqno is both
       required (in some alert's history) and required-missing (inside
       some alert's history span but not in it) — the Received/Missed
       condition of Theorem 7, applied per variable; and
    2. **ordering** is satisfiable: the precedence digraph over the
       required updates is acyclic.  Edges are (a) per-variable chains
       between consecutive required seqnos and (b), per alert and ordered
       variable pair (v, w), an edge from the alert's v-head to the first
       required w-update *newer* than its w-head — the Lemma-5
       requirement that, at trigger time, no newer w-update had arrived.

    With only required members kept, condition 1 also forces each alert's
    per-variable history to be exactly the adjacent run it claims, so the
    construction covers historical conditions as well; the test-suite
    cross-validates this checker against the exhaustive oracle.

    **First layer.**  The pass over A that collects the required/missed
    sets also notes whether every projection Π_v A is non-decreasing, and
    an *ordered* A that passes condition 1 is consistent without building
    the graph, because its graph cannot have a cycle.  Proof: for a node
    (v, s) let pos(v, s) be the first index of A whose v-head is ≥ s —
    finite, since s lies in some alert's v-history, at or below that
    alert's head.  A chain edge (v, s) → (v, s′), s < s′, never decreases
    pos (a head ≥ s′ is a head ≥ s).  A cross edge raised by alert aᵢ
    leaves (v, aᵢ.seqno.v), whose pos is ≤ i, for some (w, t) with
    t > aᵢ.seqno.w; A is ordered in w, so every alert up to and including
    aᵢ has w-head ≤ aᵢ.seqno.w < t, hence pos(w, t) > i: a cross edge
    strictly increases pos.  A cycle cannot consist of chain edges alone
    (they increase the seqno within one variable), so it would contain a
    cross edge and pos would strictly increase around it — impossible.

    **Second layer.**  Only an unordered A builds the graph
    (:func:`_precedence_cycle`).  Both layers are facts about A alone;
    which scenario or AD algorithm produced A is never consulted.
    """
    if not keys:
        return ConsistencyResult(True)

    histories = [dict(key[1]) for key in keys]
    required: dict[str, set[int]] = {}
    missed: dict[str, set[int]] = {}
    ordered = True
    for var in variables:
        needed = required[var] = set()
        absent = missed[var] = set()
        newest = None
        for history in histories:
            seqnos = history[var]
            head = seqnos[0]
            if newest is not None and head < newest:
                ordered = False
            newest = head
            if len(seqnos) == 1:
                needed.add(head)  # a degree-1 history spans no gap
                continue
            needed.update(seqnos)
            absent.update(history_gaps(seqnos))
    for var in variables:
        conflict = required[var] & missed[var]
        if conflict:
            seqno = min(conflict)
            return ConsistencyResult(
                False,
                conflict=(
                    f"update {seqno}{var} is required received by one alert "
                    "and required missed by another"
                ),
            )

    if not ordered:
        cycle = _precedence_cycle(histories, variables, required)
        if cycle is not None:
            return ConsistencyResult(False, conflict=cycle)
    return ConsistencyResult(
        True,
        witness_received=frozenset(
            (var, s) for var in variables for s in required[var]
        ),
    )


def _precedence_cycle(
    histories: Sequence[dict[str, tuple[int, ...]]],
    variables: Sequence[str],
    required: dict[str, set[int]],
) -> str | None:
    """Second layer of :func:`check_consistency_multi`: the rendered
    precedence cycle over the required updates, or None when acyclic
    (plain-dict adjacency and Kahn's algorithm).  ``histories`` holds
    each alert's variable → seqnos, as its identity key names them."""
    successors: dict[tuple[str, int], list[tuple[str, int]]] = {}
    indegree: dict[tuple[str, int], int] = {}
    sorted_required = {var: sorted(required[var]) for var in variables}

    def add_edge(src: tuple[str, int], dst: tuple[str, int]) -> None:
        successors.setdefault(src, []).append(dst)
        indegree[dst] = indegree.get(dst, 0) + 1
        indegree.setdefault(src, 0)

    for var in variables:
        run = sorted_required[var]
        for seqno in run:
            indegree.setdefault((var, seqno), 0)
        for a, b in zip(run, run[1:]):
            add_edge((var, a), (var, b))
    for history in histories:
        for var_v, var_w in itertools.permutations(variables, 2):
            head_v = history[var_v][0]
            head_w = history[var_w][0]
            run_w = sorted_required[var_w]
            at = bisect.bisect_right(run_w, head_w)
            successor = run_w[at] if at < len(run_w) else None
            if successor is not None:
                add_edge((var_v, head_v), (var_w, successor))

    ready = [node for node, degree in indegree.items() if degree == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for succ in successors.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if removed == len(indegree):
        return None
    # Some node sits on (or behind) a cycle.  Every blocked node keeps at
    # least one blocked predecessor (its remaining indegree), so walking
    # predecessors inside the blocked set must revisit a node — that loop
    # is a cycle, recorded backwards.
    blocked = {node for node, degree in indegree.items() if degree > 0}
    predecessors: dict[tuple[str, int], tuple[str, int]] = {}
    for src, dsts in successors.items():
        if src in blocked:
            for dst in dsts:
                if dst in blocked:
                    predecessors.setdefault(dst, src)
    node = min(blocked)
    seen: dict[tuple[str, int], int] = {}
    walk: list[tuple[str, int]] = []
    while node not in seen:
        seen[node] = len(walk)
        walk.append(node)
        node = predecessors[node]
    cycle = list(reversed(walk[seen[node] :]))
    rendered = " -> ".join(f"{s}{v}" for (v, s) in cycle + [cycle[0]])
    return f"precedence cycle over updates: {rendered}"
