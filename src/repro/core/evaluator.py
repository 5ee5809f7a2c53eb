"""The Condition Evaluator — the CE's evaluation core (Sections 2–3).

:class:`ConditionEvaluator` is the stateful heart of a CE and the one
place in the code base where the CE step happens: it ingests data
updates, maintains the history set H at the degrees the condition
demands — one most-recent-first list per variable, so ``buffer[i]`` is
the paper's ``Hx[-i]`` — asks the condition's compiled closure
(:func:`~repro.core.condition.compile_condition`) whether it holds on
every arrival, and emits an alert carrying a frozen snapshot of H
whenever it does.

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

__all__ = ["ConditionEvaluator"]

_new = object.__new__
_oset = object.__setattr__


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
        "condition", "source", "_holds", "_buffers", "_windows",
        "_received", "_alerts", "_defined",
    )

    def __init__(self, condition: Condition, source: str = "") -> None:
        self.condition = condition
        self.source = source
        self._holds = compile_condition(condition)
        #: One most-recent-first list per variable, in sorted-variable
        #: order: the order the closure takes its arguments in and the
        #: key order HistorySnapshot keeps.
        self._buffers: list[list[Update]] = [[] for _ in condition.variables]
        degrees = condition.degrees
        #: varname -> (buffer, degree), in the same order.
        self._windows = {
            var: (buffer, degrees[var])
            for var, buffer in zip(condition.variables, self._buffers)
        }
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
        """Every alert emitted so far (its ``A_i = T(U_i)``)."""
        return tuple(self._alerts)

    @property
    def is_warmed_up(self) -> bool:
        """True once H is defined and the condition can be evaluated."""
        return self._defined

    # -- operation -----------------------------------------------------------
    def ingest(self, update: Update) -> Alert | None:
        """Incorporate one update; return the alert it triggered, if any.

        Updates for variables outside the condition's variable set are
        ignored entirely (not recorded in ``received``): the CE would not
        have subscribed to those DMs.
        """
        window = self._windows.get(update.varname)
        if window is None:
            return None
        buffer, degree = window
        if buffer and update.seqno <= buffer[0].seqno:
            raise ValueError(
                f"non-increasing seqno pushed into H{update.varname}: "
                f"{update.seqno} after {buffer[0].seqno}"
            )
        buffer.insert(0, update)
        if len(buffer) > degree:
            buffer.pop()
        self._received.append(update)
        buffers = self._buffers
        if not self._defined:
            # H is undefined while fewer than `degree` updates of some
            # variable have arrived (§2): the condition cannot be
            # evaluated yet.
            for buffer, degree in self._windows.values():
                if len(buffer) < degree:
                    return None
            self._defined = True
        if not self._holds(*buffers):
            return None
        # Frozen-dataclass construction without __init__'s indirection
        # (the order check above is HistorySnapshot's validation), and a
        # loop rather than a comprehension's extra frame per alert.
        entries = {}
        for var, buffer in zip(self._windows, buffers):
            entries[var] = tuple(buffer)
        snapshot = _new(HistorySnapshot)
        _oset(snapshot, "_entries", entries)
        _oset(snapshot, "_identity", None)
        alert = _new(Alert)
        _oset(alert, "condname", self.condition.name)
        _oset(alert, "histories", snapshot)
        _oset(alert, "source", self.source)
        self._alerts.append(alert)
        return alert

    def ingest_all(self, updates: Iterable[Update]) -> list[Alert]:
        """Feed a whole trace; return the alerts it produced, in order."""
        return [a for a in map(self.ingest, updates) if a is not None]

    def reset(self) -> None:
        """Clear all state, as if the evaluator had just started."""
        for buffer in self._buffers:
            buffer.clear()
        self._received.clear()
        self._alerts.clear()
        self._defined = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.source or "CE"
        return (
            f"<ConditionEvaluator {label} cond={self.condition.name} "
            f"received={len(self._received)} alerts={len(self._alerts)}>"
        )
