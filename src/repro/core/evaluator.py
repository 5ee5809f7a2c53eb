"""The Condition Evaluator — the CE's evaluation core (Sections 2–3).

:class:`ConditionEvaluator` is the stateful heart of a CE and the one
place in the code base where the CE step happens: it takes data
updates, maintains the history set H at the degrees the condition
demands — one most-recent-first list per variable, so ``buffer[i]`` is
the paper's ``Hx[-i]`` — and asks the condition's compiled closure
(:func:`~repro.core.condition.compile_condition`) whether it holds on
every arrival.

:meth:`ConditionEvaluator.step` is that step.  When the condition holds
it returns the alert's *identity key* ``(condname, ((var, seqnos), …))``
— exactly :meth:`Alert.identity() <repro.core.alert.Alert.identity>`,
the seqnos most recent first, the variables sorted — because that is all
an AD decides on (§2: "others need only the update sequence numbers").
:meth:`ConditionEvaluator.windows` gives the update tuples behind it,
for the one reader that needs values: a displayed alert's rendering.
:meth:`ConditionEvaluator.ingest` is the object API on top: the step
plus a frozen :class:`~repro.core.alert.Alert` whose snapshot already
holds the key, so nothing downstream rebuilds it.

This class is deliberately free of any networking or simulation concerns —
it is the pure ``T`` mapping unrolled over time.  Both simulator kernels,
every service runtime and the reference non-replicated system
(:mod:`repro.core.reference`) run their CEs through it.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.alert import Alert
from repro.core.condition import Condition, compile_condition
from repro.core.history import HistorySnapshot
from repro.core.update import Update

__all__ = ["ConditionEvaluator", "alert_from_key"]

_new = object.__new__
_oset = object.__setattr__


def alert_from_key(
    key: tuple, entries: dict[str, tuple[Update, ...]], source: str
) -> Alert:
    """The :class:`Alert` of a CE step: ``key`` as :meth:`step
    <ConditionEvaluator.step>` returned it, and ``entries`` the
    variable → updates dict of the :meth:`~ConditionEvaluator.windows` of
    that step, raised by ``source``.

    Frozen-dataclass construction without ``__init__``'s indirection (the
    step's order check is :class:`HistorySnapshot`'s validation), with the
    snapshot's identity memo filled from the key.
    """
    snapshot = _new(HistorySnapshot)
    _oset(snapshot, "_entries", entries)
    _oset(snapshot, "_identity", key[1])
    alert = _new(Alert)
    _oset(alert, "condname", key[0])
    _oset(alert, "histories", snapshot)
    _oset(alert, "source", source)
    return alert


class ConditionEvaluator:
    """Evaluates one condition over an incoming update stream.

    Per the paper's assumptions (§2.1), one evaluator monitors a single
    condition.  The evaluator enforces the front-link in-order guarantee:
    feeding it a same-variable update with a non-increasing seqno raises,
    because by assumption the link layer has already discarded such
    messages before they reach the CE.

    Parameters
    ----------
    condition:
        The condition to monitor.
    source:
        Label stamped onto emitted alerts (e.g. ``"CE1"``), so analysis
        code can attribute alerts to evaluators.
    """

    __slots__ = (
        "condition", "source", "_condname", "_variables", "_holds",
        "_buffers", "_runs", "_windows", "_only", "_received", "_alerts",
        "_defined",
    )

    def __init__(self, condition: Condition, source: str = "") -> None:
        self.condition = condition
        self.source = source
        self._condname = condition.name
        #: Sorted: the order the closure takes its arguments in, and the
        #: key order of HistorySnapshot and of an alert's identity.
        self._variables = condition.variables
        self._holds = compile_condition(condition)
        #: One most-recent-first list per variable, in variable order.
        self._buffers: list[list[Update]] = [[] for _ in self._variables]
        #: (var, buffer, seqnos) per variable, in the same order: the
        #: seqnos list mirrors the buffer, so a key costs one tuple call
        #: per variable.
        self._runs = [(var, buffer, []) for var, buffer in zip(
            self._variables, self._buffers
        )]
        degrees = condition.degrees
        #: varname -> (buffer, seqnos, degree).
        self._windows = {
            var: (buffer, seqnos, degrees[var])
            for var, buffer, seqnos in self._runs
        }
        #: A single-variable condition's one run, which its key and
        #: windows are built from without a loop.
        self._only = self._runs[0] if len(self._runs) == 1 else None
        self._received: list[Update] = []
        self._alerts: list[Alert] = []
        # H can only gain entries, so once defined it stays defined.
        self._defined = False

    # -- inspection ----------------------------------------------------------
    @property
    def received(self) -> tuple[Update, ...]:
        """Every update this evaluator has incorporated (its ``U_i``)."""
        return tuple(self._received)

    @property
    def alerts(self) -> tuple[Alert, ...]:
        """Every alert :meth:`ingest` emitted so far (its ``A_i = T(U_i)``)."""
        return tuple(self._alerts)

    @property
    def is_warmed_up(self) -> bool:
        """True once H is defined and the condition can be evaluated."""
        return self._defined

    def windows(self) -> tuple[tuple[str, tuple[Update, ...]], ...]:
        """H as the last :meth:`step` left it: ``((var, updates), …)`` in
        the key's variable order, each run most recent first — the line
        inputs of the alert that step raised, if it raised one."""
        only = self._only
        if only is not None:
            return ((only[0], tuple(only[1])),)
        pairs = []
        for var, buffer, _ in self._runs:
            pairs.append((var, tuple(buffer)))
        return tuple(pairs)

    # -- operation -----------------------------------------------------------
    def step(self, update: Update) -> tuple | None:
        """Incorporate one update; return the identity key of the alert it
        triggered, if any: ``(condname, ((var, seqnos), …))``, equal to
        that alert's :meth:`~repro.core.alert.Alert.identity`.

        Updates for variables outside the condition's variable set are
        ignored entirely (not recorded in ``received``): the CE would not
        have subscribed to those DMs.
        """
        window = self._windows.get(update.varname)
        if window is None:
            return None
        buffer, seqnos, degree = window
        seqno = update.seqno
        if seqnos and seqno <= seqnos[0]:
            raise ValueError(
                f"non-increasing seqno pushed into H{update.varname}: "
                f"{seqno} after {seqnos[0]}"
            )
        buffer.insert(0, update)
        seqnos.insert(0, seqno)
        if len(buffer) > degree:
            buffer.pop()
            seqnos.pop()
        self._received.append(update)
        if not self._defined:
            # H is undefined while fewer than `degree` updates of some
            # variable have arrived (§2): the condition cannot be
            # evaluated yet.
            for buffer, _, degree in self._windows.values():
                if len(buffer) < degree:
                    return None
            self._defined = True
        if not self._holds(*self._buffers):
            return None
        only = self._only
        if only is not None:
            return (self._condname, ((only[0], tuple(only[2])),))
        pairs = []
        for var, _, seqnos in self._runs:
            pairs.append((var, tuple(seqnos)))
        return (self._condname, tuple(pairs))

    def ingest(self, update: Update) -> Alert | None:
        """:meth:`step`, and the :class:`Alert` of a triggered step."""
        key = self.step(update)
        if key is None:
            return None
        entries = {}
        for var, buffer, _ in self._runs:
            entries[var] = tuple(buffer)
        alert = alert_from_key(key, entries, self.source)
        self._alerts.append(alert)
        return alert

    def ingest_all(self, updates: Iterable[Update]) -> list[Alert]:
        """Feed a whole trace; return the alerts it produced, in order."""
        return [a for a in map(self.ingest, updates) if a is not None]

    def reset(self) -> None:
        """Clear all state, as if the evaluator had just started."""
        for _, buffer, seqnos in self._runs:
            buffer.clear()
            seqnos.clear()
        self._received.clear()
        self._alerts.clear()
        self._defined = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.source or "CE"
        return (
            f"<ConditionEvaluator {label} cond={self.condition.name} "
            f"received={len(self._received)} alerts={len(self._alerts)}>"
        )
