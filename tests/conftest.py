"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
from collections.abc import Sequence
from contextlib import contextmanager

import pytest

from repro.core.alert import Alert, alert_identity_set, make_alert
from repro.core.condition import Condition, c1, c2, c3, cm
from repro.core.history import HistorySnapshot
from repro.core.reference import apply_T, count_interleavings, interleavings
from repro.core.update import Update, parse_trace
from repro.props.completeness import CompletenessResult


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
    actual = alert_identity_set(alerts)
    for candidate in interleavings(
        {var: list(seq) for var, seq in per_variable_updates.items()}
    ):
        if alert_identity_set(apply_T(condition, candidate)) == actual:
            return CompletenessResult(True, witness_interleaving=tuple(candidate))
    canonical = [update for seq in per_variable_updates.values() for update in seq]
    expected = alert_identity_set(apply_T(condition, canonical))
    return CompletenessResult(
        False,
        missing=frozenset(expected - actual),
        extraneous=frozenset(actual - expected),
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
