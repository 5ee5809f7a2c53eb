"""Verdicts of a single-variable run, folded while the run happens.

:func:`~repro.props.report.evaluate_run` decides a finished run: it
combines the CE traces into ``U1 ⊔ U2``, then walks that merged run and
the displayed sequence A once each.  Every one of those walks is a left
fold, so an online monitor can take each step as its input arrives and
keep only what later steps read:

* **orderedness** — the last displayed head and, once a head regresses,
  the index of the first inversion;
* **consistency** — Figure A-3's *Received* and *Missed* seqno sets, up
  to the first conflict (:func:`~repro.props.consistency.constrain_single`
  is the step);
* **completeness** — ΦA as a set of seqno tuples (plus the identity of
  any alert of another condition or variable set), and ΦT(U1 ⊔ U2) as
  the seqno tuples of the merged run's windows where the condition
  holds (:func:`~repro.props.completeness.compare_window_keys` compares
  them).

The merged run is the one input that cannot be folded on arrival: a
seqno one CE holds may still reach another CE and land between two
seqnos already merged.  A CE's stream never goes back, so once every CE
has received seqno *s* or beyond, nothing below *s* can arrive any more.
The union is therefore released in seqno order strictly below the lowest
CE tip (the *watermark*), and only what lies above it is held — a heap
of seqnos and their updates.  A CE that has received nothing holds the
whole union back until :meth:`VerdictFold.report`.

:meth:`VerdictFold.report` flushes what is held and returns the
:class:`~repro.props.report.PropertyReport` that :func:`evaluate_run`
returns for the same traces and displayed sequence — equal result
objects, witnesses and conflict strings included.
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heappop, heappush

from repro.core.alert import identity_seqnos
from repro.core.condition import Condition, compile_condition
from repro.core.update import Update
from repro.props.completeness import compare_window_keys
from repro.props.consistency import ConsistencyResult, constrain_single
from repro.props.orderedness import OrderednessResult
from repro.props.report import PropertyReport

__all__ = ["VerdictFold"]


class VerdictFold:
    """The three verdicts of one single-variable run, one step per input.

    :meth:`receive` takes the updates a CE incorporated, in that CE's
    order, and only queues them, because a CE calls it on its latency
    path; :meth:`settle` folds what was queued.  :meth:`display` folds
    the identity keys of the alerts the AD displayed, in display order —
    all the displayed side reads.  :meth:`report` ends the run.  Either side may come in batches of any size, the two sides in
    any interleaving.
    """

    def __init__(self, condition: Condition, traces: int) -> None:
        variables = condition.variables
        if len(variables) != 1:
            raise ValueError(
                "VerdictFold needs a single-variable condition; "
                f"{condition.name!r} has variables {variables}"
            )
        self.condition = condition
        self.variable = variables[0]
        self._degree = condition.degree(self.variable)
        self._holds = compile_condition(condition)
        # -- the merged run U1 ⊔ U2 and ΦT of it
        #: Per CE, what it received since the last settle().
        self._inbox: list[list[Update]] = [[] for _ in range(traces)]
        #: Per CE, the last seqno it received (None: nothing yet).
        self._tips: list[int | None] = [None] * traces
        #: The union above the watermark: seqno -> update, and a heap of
        #: the same seqnos.
        self._above: dict[int, Update] = {}
        self._heap: list[int] = []
        #: The merged run's last ``degree`` updates, most recent first,
        #: and their seqnos (a window's key is one tuple call).
        self._window: list[Update] = []
        self._window_seqnos: list[int] = []
        self._expected: set[tuple[int, ...]] = set()
        # -- the displayed sequence A
        self._displayed = 0
        self._last_head: int | None = None
        self._inversion: int | None = None
        self._actual: set[tuple[int, ...]] = set()
        self._foreign: set[tuple] = set()
        self._received: set[int] = set()
        self._missed: set[int] = set()
        self._conflict: str | None = None

    @property
    def held(self) -> int:
        """Updates received but not yet stepped through T: queued since
        the last :meth:`settle`, or above the watermark."""
        return len(self._heap) + sum(map(len, self._inbox))

    # -- the merged run ------------------------------------------------------
    def receive(self, trace: int, updates: Iterable[Update]) -> None:
        """CE ``trace`` incorporated ``updates`` (queued, not yet folded)."""
        self._inbox[trace].extend(updates)

    def settle(self) -> None:
        """Fold every update received so far into the union, and step T
        over the union up to the watermark.

        Raises ValueError when a CE's seqnos go back or two CEs carry
        different values for one seqno, as
        :func:`~repro.core.reference.combine_received` does.
        """
        tips = self._tips
        for trace, inbox in enumerate(self._inbox):
            if inbox:
                tips[trace] = self._merge(trace, inbox)
                inbox.clear()
        if None not in tips:
            self._release(min(tips))

    def _merge(self, trace: int, updates: list[Update]) -> int | None:
        """File one CE's updates into the union above the watermark;
        return the CE's new tip."""
        var = self.variable
        above = self._above
        heap = self._heap
        tip = self._tips[trace]
        for update in updates:
            if update.varname != var:
                continue
            seqno = update.seqno
            if tip is not None and seqno < tip:
                raise ValueError(
                    f"trace {trace} not ordered with respect to {var!r}: "
                    f"{seqno} after {tip}"
                )
            tip = seqno
            existing = above.get(seqno)
            if existing is None:
                above[seqno] = update
                heappush(heap, seqno)
            elif existing is not update and existing.value != update.value:
                raise ValueError(
                    f"conflicting updates for seqno {seqno}: "
                    f"{existing} vs {update}"
                )
        return tip

    def _release(self, watermark: int | None) -> None:
        """Step T over the union below ``watermark`` (all of it: None)."""
        above = self._above
        heap = self._heap
        window = self._window
        seqnos = self._window_seqnos
        degree = self._degree
        holds = self._holds
        expected = self._expected
        while heap and (watermark is None or heap[0] < watermark):
            seqno = heappop(heap)
            window.insert(0, above.pop(seqno))
            seqnos.insert(0, seqno)
            if len(window) > degree:
                window.pop()
                seqnos.pop()
            elif len(window) < degree:
                continue
            if holds(window):
                expected.add(tuple(seqnos))

    # -- the displayed sequence ----------------------------------------------
    def display(self, keys: Iterable[tuple]) -> None:
        """The AD displayed the alerts identified by ``keys``
        (:meth:`Alert.identity() <repro.core.alert.Alert.identity>`), in
        this order."""
        var = self.variable
        condname = self.condition.name
        for key in keys:
            index = self._displayed
            self._displayed = index + 1
            runs = key[1]
            seqnos = identity_seqnos(key, var)
            # Orderedness: the first head below its predecessor.
            head = seqnos[0]
            if self._inversion is None and self._last_head is not None:
                if head < self._last_head:
                    self._inversion = index
            self._last_head = head
            if key[0] != condname or len(runs) != 1:
                self._foreign.add(key)
            else:
                self._actual.add(seqnos)
            if self._conflict is None:
                self._conflict = constrain_single(
                    self._received, self._missed, index, key, seqnos
                )

    # -- the end -------------------------------------------------------------
    def report(self) -> PropertyReport:
        """Settle, step T over what is still held, and return the run's
        verdicts.  Ends the run: nothing may be received after it."""
        self.settle()
        self._release(None)
        var = self.variable
        if self._inversion is None:
            ordered = OrderednessResult(True)
        else:
            ordered = OrderednessResult(False, var, self._inversion)
        # The run is over, so its key sets can wait for a reader of the
        # diagnosis; the service reads only the verdict.
        complete = compare_window_keys(
            self.condition.name, var, self._expected, self._actual,
            self._foreign, defer=True,
        )
        if self._conflict is None:
            consistent = ConsistencyResult(
                True, witness_received=frozenset(self._received)
            )
        else:
            consistent = ConsistencyResult(False, conflict=self._conflict)
        return PropertyReport(ordered, complete, consistent)
