"""Completeness — property 2 of Section 3.1 / Appendix C.

Single variable: A is complete iff ``ΦA = ΦT(U1 ⊔ U2)`` — the user sees
exactly the alerts the corresponding non-replicated system would have
produced on the combined inputs (possibly reordered).

Multi variable (Appendix C): completeness requires ``ΦA = ΦT(UV)`` for an
interleaving UV of the per-variable ordered unions.  The definition reads
"any interleaving"; the proof of Lemma 6 establishes *in*completeness by
showing that *no* interleaving UV yields exactly ΦA, so the operative
reading — and the one we implement — is existential: A is complete iff
some interleaving realises exactly its alert set.  (For a single
variable there is exactly one interleaving, U1 ⊔ U2, so the definitions
coincide.)

The multi-variable decision is implemented two ways:

* :func:`check_completeness_multi` — two layers over the *interleaving
  grid*.  The reference evaluator's state after a prefix of UV is
  determined by how many updates of each variable the prefix holds, so
  an interleaving is a monotone path through the grid ∏(len_v + 1) of
  per-variable positions and the alerts it raises are the points it
  visits where the condition holds.  The first layer maps ΦA onto grid
  points and rejects, in one pass over ΦA and a sort, any A that names a
  point no path can raise or two points no single path can visit; the
  residue is a walk through the remaining targets in chain order that
  explores at most one state per grid point and evaluates the condition
  through its compiled closure.  Exact same results as exhaustive
  enumeration — verdict, ``missing`` and ``extraneous``.  ``limit``
  bounds the number of explored states — when exceeded the result
  carries ``undecided=True`` instead of guessing (or raising); that
  cannot happen once ``limit`` reaches the grid size.

The blind interleaving enumeration it replaced is the test suite's
cross-validation oracle (``tests/conftest.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from operator import gt

from repro.core.condition import Condition, compile_condition
# Nothing here calls either; both stay bound because the traced benchmark
# harness patches ``repro.props.completeness.{apply_T,combine_received}``.
from repro.core.reference import apply_T, combine_received  # noqa: F401
from repro.core.sequences import is_strictly_ordered
from repro.core.update import Update

__all__ = [
    "CompletenessResult",
    "check_completeness_single",
    "check_completeness_multi",
]


class _Diagnosis:
    """``missing`` / ``extraneous`` of a result made by
    :meth:`CompletenessResult.deferred`: both are computed on the first
    read of either and then sit in the instance like any field.  Reading
    the class attribute gives the field's default, the empty set."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, result, owner: type | None = None):
        if result is None:
            return frozenset()
        state = result.__dict__
        state["missing"], state["extraneous"] = state.pop("_diagnose")()
        return state[self.name]


@dataclass(frozen=True)
class CompletenessResult:
    """Verdict plus the witnessed discrepancies.

    ``missing`` are alert identities T(U1⊔U2) produces but A lacks;
    ``extraneous`` are identities in A that the reference never produces.
    For the multi-variable case the sets are relative to the *canonical*
    interleaving (each variable's run appended whole, in variable order) —
    a fixed, cheap reference point; the search itself proves that no
    interleaving matches exactly.

    The service's running verdict (:class:`~repro.props.fold.VerdictFold`)
    returns a ✗ verdict with :meth:`deferred`, so the two sets are built
    only when something reads them; the service reads only the verdict.
    Equality, hashing, ``repr`` and pickling read them, so a deferred
    result compares, hashes, prints and pickles exactly as the eager one
    built from the same sets.  The batch checkers stay eager: their
    verdicts live on in reports, where a deferred one would hold the
    inputs of its diagnosis instead of the (smaller) diagnosis.

    ``undecided=True`` marks a multi-variable check that exhausted its
    state budget before finding a witness or exhausting the search space;
    the verdict must then be treated as unknown, not as a violation
    (:class:`~repro.props.report.PropertyTally` skips undecided results).
    """

    complete: bool
    missing: frozenset[tuple] = _Diagnosis()
    extraneous: frozenset[tuple] = _Diagnosis()
    #: Multi-variable only: a witnessing interleaving when complete.
    witness_interleaving: tuple[Update, ...] | None = field(
        default=None, compare=False
    )
    #: True when the state budget ran out before the search concluded.
    undecided: bool = False

    def __bool__(self) -> bool:
        return self.complete

    @classmethod
    def deferred(
        cls, diagnose: Callable[[], tuple[frozenset[tuple], frozenset[tuple]]]
    ) -> CompletenessResult:
        """A ✗ verdict whose ``(missing, extraneous)`` are ``diagnose()``,
        called on the first read of either."""
        result = object.__new__(cls)
        state = result.__dict__
        state["complete"] = False
        state["witness_interleaving"] = None
        state["undecided"] = False
        state["_diagnose"] = diagnose
        return result

    def __getstate__(self) -> dict:
        # What an eager result pickles: its fields, in order.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def check_completeness_single(
    keys: Sequence[tuple],
    condition: Condition,
    merged_updates: Sequence[Update],
) -> CompletenessResult:
    """Single-variable completeness: ΦA = ΦT(U1 ⊔ U2), with A given as its
    alerts' identity keys.

    ``merged_updates`` is the already-merged ``U1 ⊔ U2`` (see
    :func:`repro.core.reference.merge_single_variable`); updates of
    other variables in it are ignored, as a CE ignores them.

    **The windows.**  With one variable there is one interleaving, and
    T's state after the first ``pos`` updates of the x-run is the window
    of its last ``degree`` seqnos.  So ΦT(U1 ⊔ U2) is read off a single
    walk over positions ``degree … len(run)``: T raises at a position
    iff the condition's compiled closure holds on that window, and the
    alert it would raise is named by the window's seqno tuple.  No
    evaluator runs and no alert is built.

    **ΦA on the same keys.**  A displayed alert of this condition over
    exactly this variable is its key's seqno tuple; any other alert is
    one T never raises — extraneous at once.  The verdict compares
    two sets of int tuples, and identities ``(condname, ((var,
    seqnos),))`` are rendered only for their symmetric difference.

    Same two layers as :func:`check_completeness_multi` with the grid
    collapsed to a line: a single path, so no residue search is left.

    Raises ValueError when the x-run's seqnos do not strictly increase
    (the front links deliver in order; T is undefined on such a run).
    """
    variables = condition.variables
    if len(variables) != 1:
        raise ValueError(
            "check_completeness_single needs a single-variable condition; "
            f"{condition.name!r} has variables {variables}"
        )
    var = variables[0]
    degree = condition.degree(var)
    condname = condition.name

    run = [update for update in merged_updates if update.varname == var]
    seqnos = [update.seqno for update in run]
    if not is_strictly_ordered(seqnos):
        raise ValueError(
            f"the merged {var!r} run is not strictly ordered: {seqnos}"
        )
    # Most recent first, as a history is: the window at position ``pos``
    # is then the one slice ``[n - pos : n - pos + degree]``.
    run.reverse()
    seqnos.reverse()

    holds = compile_condition(condition)
    expected: set[tuple[int, ...]] = set()
    for start in range(len(seqnos) - degree, -1, -1):
        if holds(run[start : start + degree]):
            expected.add(tuple(seqnos[start : start + degree]))

    actual: set[tuple[int, ...]] = set()
    foreign: set[tuple] = set()
    for key in keys:
        histories = key[1]
        if key[0] != condname or len(histories) != 1 or histories[0][0] != var:
            foreign.add(key)
        else:
            actual.add(histories[0][1])
    # A batch verdict lives on in its run's report: diagnosed now, it
    # keeps the difference rather than both key sets.
    return compare_window_keys(
        condname, var, expected, actual, foreign, defer=False
    )


def compare_window_keys(
    condname: str,
    var: str,
    expected: set[tuple[int, ...]],
    actual: set[tuple[int, ...]],
    foreign: set[tuple],
    *,
    defer: bool,
) -> CompletenessResult:
    """The verdict of :func:`check_completeness_single` from its key sets:
    ``expected`` holds the seqno tuples of the windows where T raises,
    ``actual`` those of A's alerts of this condition over exactly ``var``,
    and ``foreign`` the identities of A's other alerts.  Identities are
    rendered only for the symmetric difference.

    With ``defer``, a ✗ verdict renders them only when they are read
    (:meth:`CompletenessResult.deferred`) and holds the three sets until
    then, so the sets must not change after the call: the choice of a
    caller whose sets die with the verdict's reader anyway."""
    if expected == actual and not foreign:
        return CompletenessResult(True)

    def diagnose() -> tuple[frozenset[tuple], frozenset[tuple]]:
        def identities(keys: set[tuple[int, ...]]) -> set[tuple]:
            return {(condname, ((var, key),)) for key in keys}

        return (
            frozenset(identities(expected - actual)),
            frozenset(identities(actual - expected) | foreign),
        )

    if defer:
        return CompletenessResult.deferred(diagnose)
    missing, extraneous = diagnose()
    return CompletenessResult(False, missing, extraneous)


def check_completeness_multi(
    keys: Sequence[tuple],
    condition: Condition,
    per_variable_updates: dict[str, Sequence[Update]],
    limit: int = 500_000,
) -> CompletenessResult:
    """Multi-variable completeness: ∃ interleaving UV with ΦA = ΦT(UV),
    with A given as its alerts' identity keys.

    **The grid.**  The reference evaluator's state after a prefix of UV
    is a pure function of how many updates of each variable the prefix
    holds — each history window is the last ``degree`` updates of that
    variable's fixed run — so an interleaving is a monotone path through
    the grid ∏(len_v + 1) of per-variable positions, from the origin to
    the far corner, and T raises an alert exactly at the visited points
    where every window is defined and the condition holds.  That alert's
    identity *is* the point's window vector; runs do not repeat a seqno,
    so a window's head names its position and identities and grid points
    correspond one to one.  A is complete iff some path visits exactly
    the points ΦA names among those where the condition holds.

    **First layer** (one pass over ΦA and a sort).  Map every identity
    of ΦA to its point through a per-variable seqno → position index, and
    check it in place: per axis its variable, and the run's seqno slice
    below its head.  An identity that is not the window vector of a point
    where the condition holds — the gap history of a lossy CE, a head
    nobody received — is raised on no path.  Two target points
    incomparable in the product order lie on no common monotone path.
    Either way A is incomplete at once.

    **Residue.**  The targets now form a chain t₁ < … < t_k, and a path
    must visit them in that order.  Walk from the origin to the far
    corner one leg at a time, each leg a depth-first search for a path
    from one target to the next that steps on no other point where the
    condition holds.  A step that overshoots the leg's goal in some
    coordinate is discarded: positions never decrease, so such a prefix
    can never come back to the goal.  What survives lies in the box
    between the leg's two ends; the boxes of a chain share only their
    corners, every alert raised so far is a function of the position
    (the targets at or below it), and a leg that succeeds is never
    re-entered because the legs are independent.  Hence at most
    ∏(len_v + 1) states are explored, and ``undecided`` cannot occur once
    ``limit`` reaches the grid size.  Each point is evaluated once,
    through :func:`~repro.core.condition.compile_condition`'s closure on
    windows sliced off the runs when first asked: nothing is built per
    position.  A ✗ verdict is still diagnosed before returning; deferred,
    its report would keep the runs and ΦA alive, not the smaller diagnosis.

    Every rule above is a fact about (A, the runs); which scenario row or
    AD algorithm produced them is never consulted.  In particular
    "lossless front links ⇒ complete" is *false* (AD-5 discards alerts
    that arrive out of order on lossless links too) and is not used.

    ``limit`` bounds explored states; exceeding it yields
    ``undecided=True`` rather than a guess.  Raises ValueError when a run
    repeats a seqno.
    """
    actual = frozenset(keys)
    degrees = condition.degrees
    # Variables the evaluator would ignore contribute nothing to T(UV) and
    # may be interleaved anywhere — drop them from the search.  Empty runs
    # are dropped too (no moves to make).
    variables = [
        var
        for var, seq in per_variable_updates.items()
        if var in degrees and len(seq) > 0
    ]

    # A variable of the condition with fewer updates than its degree keeps
    # H undefined forever: T produces no alerts on any interleaving.
    producible = all(
        len(per_variable_updates.get(var, ())) >= degree
        for var, degree in degrees.items()
    )
    if not producible:
        if not actual:
            return CompletenessResult(
                True,
                witness_interleaving=tuple(
                    update for var in variables for update in per_variable_updates[var]
                ),
            )
        return CompletenessResult(False, extraneous=actual)

    # One grid axis per condition variable, in the sorted order both the
    # compiled closure's arguments and an identity's entries use.  Per
    # axis: the run and its seqnos most recent first — the window at
    # ``pos`` is ``[n - pos : n - pos + degree]`` of either — and heads.
    axes = condition.variables
    n_axes = len(axes)
    runs = [per_variable_updates[var] for var in axes]
    shape: list[tuple[str, int, int, list[Update], tuple[int, ...], dict]] = []
    for var, run in zip(axes, runs):
        recent = run[::-1]
        seqnos = tuple([update.seqno for update in recent])
        heads = dict(zip(seqnos, range(len(run), 0, -1)))
        if len(heads) != len(run):
            raise ValueError(f"the combined {var!r} run repeats a seqno")
        shape.append((var, degrees[var], len(run), recent, seqnos, heads))
    end = tuple([len(run) for run in runs])

    condname = condition.name
    holds = compile_condition(condition)
    raised: dict[tuple[int, ...], bool] = {}

    def raises(point: tuple[int, ...]) -> bool:
        """Does T raise an alert at ``point``?  Slices its windows on first ask."""
        known = raised.get(point)
        if known is None:
            buffers = []
            for (_, degree, n, recent, _, _), pos in zip(shape, point):
                if pos < degree:
                    break  # a window still undefined
                buffers.append(recent[n - pos : n - pos + degree])
            known = raised[point] = len(buffers) == n_axes and bool(holds(*buffers))
        return known

    def incomplete(undecided: bool = False) -> CompletenessResult:
        """✗ (or undecided), with ``missing``/``extraneous`` relative to
        the canonical interleaving: there only the last variable's leg
        has every window defined — the grid edge where the others are
        spent."""
        last = axes.index(variables[-1])
        buffers = [recent[:degree] for _, degree, _, recent, _, _ in shape]
        entries = [(var, seqnos[:degree]) for var, degree, _, _, seqnos, _ in shape]
        var, degree, n, recent, seqnos, _ = shape[last]
        expected = set()
        for offset in range(n - degree, -1, -1):
            buffers[last] = recent[offset : offset + degree]
            if holds(*buffers):
                entries[last] = (var, seqnos[offset : offset + degree])
                expected.add((condname, tuple(entries)))
        return CompletenessResult(
            False,
            missing=frozenset(expected - actual),
            extraneous=frozenset(actual - expected),
            undecided=undecided,
        )

    # -- first layer ---------------------------------------------------------
    # In place: each entry's variable and the seqno slice below its head
    # (a short slice at an undefined position is left to ``raises``).
    targets: list[tuple[int, ...]] = []
    for identity in actual:
        histories = identity[1]
        if identity[0] != condname or len(histories) != n_axes:
            return incomplete()
        point = []
        for (var, seqnos), (axis, degree, n, _, below, heads) in zip(histories, shape):
            pos = heads.get(seqnos[0], 0)
            if var != axis or below[n - pos : n - pos + degree] != seqnos:
                return incomplete()
            point.append(pos)
        point = tuple(point)
        if not raises(point):
            return incomplete()
        targets.append(point)
    targets.sort()
    for lower, upper in zip(targets, targets[1:]):
        if any(map(gt, lower, upper)):
            return incomplete()

    # -- residue -------------------------------------------------------------
    wanted = set(targets)
    if not targets or targets[-1] != end:
        targets.append(end)
    states = 0
    here = (0,) * n_axes
    witness: list[Update] = []
    for goal in targets:
        # came[point] = the axis stepped along to reach it on this leg.
        came: dict[tuple[int, ...], int] = {}
        stack = [here]
        while stack and goal not in came:
            point = stack.pop()
            states += 1
            if states > limit:
                return incomplete(undecided=True)
            for axis in range(n_axes):
                coordinate = point[axis] + 1
                if coordinate > goal[axis]:
                    continue  # overshoots the goal: can never come back
                step = point[:axis] + (coordinate,) + point[axis + 1 :]
                if step in came or (raises(step) and step not in wanted):
                    continue
                came[step] = axis
                stack.append(step)
        if goal not in came:
            return incomplete()
        leg: list[Update] = []
        point = goal
        while point != here:
            axis = came[point]
            leg.append(runs[axis][point[axis] - 1])
            point = point[:axis] + (point[axis] - 1,) + point[axis + 1 :]
        witness.extend(reversed(leg))
        here = goal
    return CompletenessResult(True, witness_interleaving=tuple(witness))
