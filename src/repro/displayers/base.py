"""Alert Displayer filtering algorithms — the common interface.

The AD collects the alert streams from all CEs (already merged by arrival
order — the function ``M`` of Appendix B) and decides, alert by alert,
whether to display or discard each one.  Every algorithm in the paper is
*online* and *deterministic given the arrival order*: state is updated as
alerts are accepted, and the output sequence ``A`` is the subsequence of
arrivals that passed the filter.

Every algorithm decides on the alert's *identity key* ``(condname,
((var, seqnos), …))`` alone — :meth:`Alert.identity()
<repro.core.alert.Alert.identity>`, which is what a CE step returns
(:meth:`~repro.core.evaluator.ConditionEvaluator.step`).  The paper says
an AD needs no more (§2), and :mod:`repro.core.wire`'s ``_MINIMUM``
table names, per algorithm, the part of the key it reads.
:meth:`ADAlgorithm.decide` is the decision; :meth:`ADAlgorithm.offer`
is the object API on top of it, which also keeps the displayed output.

Subclasses implement :meth:`_accept` and :meth:`_record` over the key;
the base class enforces the decide-then-record discipline.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.alert import Alert, identity_shorthand

__all__ = ["ADAlgorithm", "run_ad"]


class ADAlgorithm:
    """Base class for AD filtering algorithms AD-1 … AD-6.

    Usage::

        ad = AD2("x")
        for alert in arrival_stream:
            ad.offer(alert)
        displayed = ad.output      # the final alert sequence A

    or, holding identity keys rather than alerts, ``ad.decide(key)``.
    """

    #: Short name used in tables and the registry ("AD-1", ...).
    name: str = "AD-?"

    def __init__(self) -> None:
        self._output: list[Alert] = []

    @property
    def output(self) -> tuple[Alert, ...]:
        """The displayed alert sequence A (so far)."""
        return tuple(self._output)

    def decide(self, key: tuple) -> bool:
        """Process the arrival of the alert whose identity is ``key``;
        return True iff it is displayed.  Keeps no alert: :meth:`offer`
        does."""
        if self._accept(key):
            self._record(key)
            return True
        return False

    def offer(self, alert: Alert) -> bool:
        """Process one arriving alert; return True iff it was displayed."""
        if self.decide(alert.identity()):
            self._output.append(alert)
            return True
        return False

    def offer_all(self, alerts: Iterable[Alert]) -> list[Alert]:
        """Process a whole arrival stream; return the displayed alerts."""
        return [a for a in alerts if self.offer(a)]

    def rejection_reason(self, key: tuple) -> str:
        """Explain why the alert identified by ``key`` would be rejected
        *in the current state*.

        Called by the observability layer after :meth:`decide` returned
        False; a rejected alert leaves state untouched, so the explanation
        is computed against exactly the state that made the decision.
        Must not mutate state.  Subclasses override with algorithm-specific
        reasons; the default names the concrete cause it can deduce from
        the base-class state — an exact re-arrival of an alert
        :meth:`offer` displayed is reported as a duplicate, anything else
        as a predicate rejection of that specific alert.  Only
        :meth:`offer` keeps an output, so on the :meth:`decide` path (a
        simulated run) the duplicate branch never fires.  Reason strings
        are load-bearing: the fuzzer's coverage signatures and the
        adaptive displayer's policy counters both classify on them.
        """
        shorthand = identity_shorthand(key)
        if any(key == shown.identity() for shown in self._output):
            return f"duplicate: history set of {shorthand} already displayed"
        return f"predicate rejection: {self.name} state excludes {shorthand}"

    # -- to be implemented by concrete algorithms ---------------------------
    def _accept(self, key: tuple) -> bool:
        """Decide whether the alert identified by ``key`` may be
        displayed; must not mutate state."""
        raise NotImplementedError

    def _record(self, key: tuple) -> None:
        """Update internal state after the alert identified by ``key``
        has been accepted."""
        # Default: no state beyond the output sequence.

    def fresh(self) -> "ADAlgorithm":
        """A new instance of the same algorithm with pristine state.

        Used by the domination and maximality analyses, which replay the
        same arrival stream through multiple algorithm copies.
        """
        return type(self)(*self._fresh_args())

    def _fresh_args(self) -> tuple:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} displayed={len(self._output)}>"


def run_ad(algorithm: ADAlgorithm, arrivals: Iterable[Alert]) -> list[Alert]:
    """Run an arrival stream through a *fresh* copy of ``algorithm``.

    Returns the displayed sequence A.  The passed instance is not mutated.
    """
    copy = algorithm.fresh()
    return copy.offer_all(arrivals)
