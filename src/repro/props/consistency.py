"""Consistency — property 3 of Section 3.1 / Appendix C.

A replicated system is *consistent* if for every alert sequence A it
produces there exists a ``U′`` with ``ΦA ⊆ ΦT(U′)`` and ``U′ ⊑ U1 ⊔ U2``
(single variable) or ``U′ ⊑ UV`` for an interleaving UV of the combined
per-variable updates (multi-variable, Appendix C).  Intuitively: the user
could have received this alert set from *some* non-replicated system fed
a subset of the combined inputs — no "extraneous" alerts.

Three checkers, in increasing generality and cost:

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
* :func:`check_consistency_bruteforce` — exact for everything; a memoized
  DFS over prefixes of candidate U′ sequences (at each step a variable's
  next update is either *taken* into U′ or *skipped*), keyed on
  (per-variable positions, history windows of taken updates, covered
  target identities) with an early exit as soon as every displayed alert
  is covered.  Used to cross-validate the fast checkers and to decide
  historical multi-variable cases; ``limit`` bounds explored states.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.alert import Alert, alert_identity_set
from repro.core.condition import Condition
from repro.core.history import HistorySnapshot
from repro.core.sequences import history_gaps
from repro.core.update import Update

__all__ = [
    "ConsistencyResult",
    "check_consistency_single",
    "check_consistency_multi",
    "check_consistency_bruteforce",
    "build_precedence_graph",
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
    #: On success for the brute-force checker: an explicit U′ sequence.
    witness_sequence: tuple[Update, ...] | None = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.consistent


def check_consistency_single(
    alerts: Sequence[Alert],
    varname: str | None = None,
) -> ConsistencyResult:
    """Exact single-variable consistency check (Theorem 7's construction).

    ``varname`` defaults to the single variable of the first alert.  An
    empty A is trivially consistent.
    """
    if not alerts:
        return ConsistencyResult(True, witness_received=frozenset())
    if varname is None:
        variables = alerts[0].variables
        if len(variables) != 1:
            raise ValueError(
                "check_consistency_single needs a single-variable condition; "
                f"alert has variables {variables}"
            )
        varname = variables[0]

    received: set[int] = set()
    missed: set[int] = set()
    for index, alert in enumerate(alerts):
        history = alert.histories.seqnos(varname)
        if not missed.isdisjoint(history):
            seqno = min(missed.intersection(history))
            return ConsistencyResult(
                False,
                conflict=(
                    f"alert #{index} {alert.shorthand()} requires update "
                    f"{seqno} received, but an earlier alert requires it missed"
                ),
            )
        gaps = history_gaps(history)
        if gaps:
            if not received.isdisjoint(gaps):
                seqno = min(received & gaps)
                return ConsistencyResult(
                    False,
                    conflict=(
                        f"alert #{index} {alert.shorthand()} requires update "
                        f"{seqno} missed, but an earlier alert requires it received"
                    ),
                )
            missed |= gaps
        received.update(history)
    return ConsistencyResult(True, witness_received=frozenset(received))


def build_precedence_graph(
    alerts: Iterable[Alert],
    variables: Sequence[str],
    max_seqnos: dict[str, int] | None = None,
) -> "networkx.DiGraph":
    """The Lemma-5 precedence graph over update instances ``(var, seqno)``.

    Edges:

    * per-variable chains ``(v, s) → (v, s+1)`` (Requirement 2);
    * for every alert and ordered variable pair (v, w):
      ``(v, a.seqno.v) → (w, a.seqno.w + 1)`` (Requirement 1) — the
      triggering v-update must precede the first w-update *newer* than the
      alert's w-history head.

    networkx is imported here, not at module scope: nothing in ``src/``
    calls this function, and every process that imports the checkers
    would otherwise pay for the import.
    """
    import networkx as nx

    graph = nx.DiGraph()
    alerts = list(alerts)
    highest: dict[str, int] = dict(max_seqnos or {})
    for alert in alerts:
        for var in variables:
            needed = alert.seqno(var) + 1
            highest[var] = max(highest.get(var, 0), needed)
    for var in variables:
        top = highest.get(var, 0)
        for seqno in range(1, top + 1):
            graph.add_node((var, seqno))
            if seqno > 1:
                graph.add_edge((var, seqno - 1), (var, seqno))
    for alert in alerts:
        for var_v, var_w in itertools.permutations(variables, 2):
            graph.add_edge(
                (var_v, alert.seqno(var_v)), (var_w, alert.seqno(var_w) + 1)
            )
    return graph


def check_consistency_multi(
    alerts: Sequence[Alert],
    variables: Sequence[str],
) -> ConsistencyResult:
    """Exact multi-variable consistency check (historical or not).

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
    if not alerts:
        return ConsistencyResult(True)

    required: dict[str, set[int]] = {}
    missed: dict[str, set[int]] = {}
    ordered = True
    for var in variables:
        needed = required[var] = set()
        absent = missed[var] = set()
        newest = None
        for alert in alerts:
            history = alert.histories[var]
            head = history[0].seqno
            if newest is not None and head < newest:
                ordered = False
            newest = head
            if len(history) == 1:
                needed.add(head)  # a degree-1 history spans no gap
                continue
            seqnos = [update.seqno for update in history]
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
        cycle = _precedence_cycle(alerts, variables, required)
        if cycle is not None:
            return ConsistencyResult(False, conflict=cycle)
    return ConsistencyResult(
        True,
        witness_received=frozenset(
            (var, s) for var in variables for s in required[var]
        ),
    )


def _precedence_cycle(
    alerts: Sequence[Alert],
    variables: Sequence[str],
    required: dict[str, set[int]],
) -> str | None:
    """Second layer of :func:`check_consistency_multi`: the rendered
    precedence cycle over the required updates, or None when acyclic.

    Plain-dict adjacency + Kahn's algorithm rather than a
    ``networkx.DiGraph`` per run (:func:`build_precedence_graph` still
    returns one for callers that want the graph itself).
    """
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
    for alert in alerts:
        for var_v, var_w in itertools.permutations(variables, 2):
            head_v = alert.seqno(var_v)
            head_w = alert.seqno(var_w)
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


def check_consistency_bruteforce(
    alerts: Sequence[Alert],
    condition: Condition,
    per_variable_updates: dict[str, Sequence[Update]],
    limit: int = 2_000_000,
) -> ConsistencyResult:
    """Exhaustive consistency oracle: search for an explicit witness U′.

    ``per_variable_updates`` holds, for each variable, the ordered union
    of updates received by all CEs (the building blocks of UV).  A valid
    witness is any interleaving of per-variable *subsequences* of those
    runs, so the search walks candidate prefixes directly: at each step
    one variable's next update is either taken into U′ or skipped.  The
    reference evaluator's behaviour on the rest of the candidate depends
    only on (per-variable positions, the history windows of *taken*
    updates, which target alerts are already covered), so states are
    memoized on exactly that triple, and the search exits as soon as every
    displayed alert is covered — dropping the remaining updates only
    removes constraints.  Exact same verdicts as enumerating every
    subset × interleaving, exponentially fewer states on typical traces.

    ``limit`` bounds the number of explored states; exceeding it raises
    RuntimeError rather than silently returning a wrong verdict.
    """
    if not alerts:
        return ConsistencyResult(True, witness_sequence=())
    targets = alert_identity_set(alerts)
    degrees = condition.degrees
    variables = [
        var
        for var, seq in per_variable_updates.items()
        if var in degrees and len(seq) > 0
    ]
    sequences = {var: list(per_variable_updates[var]) for var in variables}
    lengths = [len(sequences[var]) for var in variables]
    n_vars = len(variables)

    # A condition variable with fewer updates than its degree keeps H
    # undefined on every candidate: T(U′) is empty, so a non-empty A can
    # never be explained.
    if any(
        len(sequences.get(var, ())) < degree for var, degree in degrees.items()
    ):
        return ConsistencyResult(
            False,
            conflict=(
                "no U' explains A: some variable has fewer combined updates "
                "than the condition's degree"
            ),
        )

    bit_of = {identity: 1 << i for i, identity in enumerate(sorted(targets))}
    full_mask = (1 << len(targets)) - 1

    evaluate = condition.evaluate
    condname = condition.name
    eval_cache: dict[tuple, tuple | None] = {}

    def alert_identity(windows: tuple) -> tuple | None:
        """Identity of the alert triggered by the newest take, or None."""
        cached = eval_cache.get(windows, _UNEVALUATED)
        if cached is not _UNEVALUATED:
            return cached
        identity: tuple | None = None
        if all(
            len(window) == degrees[var]
            for var, window in zip(variables, windows)
        ):
            snapshot = HistorySnapshot.from_trusted(
                dict(zip(variables, windows))
            )
            if evaluate(snapshot):
                identity = (condname, snapshot.identity())
        eval_cache[windows] = identity
        return identity

    failed: set[tuple] = set()
    taken: list[Update] = []
    states = 0

    def search(positions: tuple[int, ...], windows: tuple, covered: int) -> bool:
        nonlocal states
        if covered == full_mask:
            return True
        if all(positions[i] == lengths[i] for i in range(n_vars)):
            return False
        key = (positions, windows, covered)
        if key in failed:
            return False
        states += 1
        if states > limit:
            raise RuntimeError(
                f"consistency brute-force exceeded limit={limit} states; "
                "use the constraint-based checkers for instances this size"
            )
        for index in range(n_vars):
            position = positions[index]
            if position == lengths[index]:
                continue
            advanced = (
                positions[:index] + (position + 1,) + positions[index + 1 :]
            )
            update = sequences[variables[index]][position]
            # Take the update into U′ ...
            degree = degrees[variables[index]]
            new_window = ((update,) + windows[index])[:degree]
            new_windows = (
                windows[:index] + (new_window,) + windows[index + 1 :]
            )
            identity = alert_identity(new_windows)
            new_covered = covered
            if identity is not None:
                bit = bit_of.get(identity)
                if bit is not None:
                    new_covered = covered | bit
            if search(advanced, new_windows, new_covered):
                taken.append(update)
                return True
            # ... or skip it (drop it from U′).
            if search(advanced, windows, covered):
                return True
        failed.add(key)
        return False

    initial_windows = tuple(() for _ in variables)
    if search(tuple([0] * n_vars), initial_windows, 0):
        taken.reverse()
        return ConsistencyResult(True, witness_sequence=tuple(taken))
    return ConsistencyResult(
        False, conflict=f"no U' among {states} explored states explains A"
    )


_UNEVALUATED = object()
