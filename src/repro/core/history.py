"""Update histories — the ``H`` structure conditions are evaluated on (§2).

An *update history* for variable x, written ``Hx``, is the sequence of the
N most recently received x-updates at a CE:

    Hx = ⟨Hx[0], Hx[-1], ..., Hx[-(N-1)]⟩

where ``Hx[0]`` is the most recent update and ``Hx[-i]`` the i-th most
recent.  N is the history's *degree*, dictated by the condition being
monitored.  Until N updates have been received the history is *undefined*
and the condition cannot be evaluated.

:class:`HistorySnapshot` is the full ``H`` frozen at one instant: one
most-recent-first tuple per variable in the condition's variable set V,
so ``snapshot[x][i]`` is the paper's ``Hx[-i]``.  It is what
:meth:`Condition.evaluate <repro.core.condition.Condition.evaluate>`
takes, what alerts carry, and what AD algorithms compare for duplicate
and conflict detection.  The live, growing H of a CE is kept by
:class:`~repro.core.evaluator.ConditionEvaluator`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.update import Update

__all__ = ["HistorySnapshot", "history_is_consecutive"]

_oset = object.__setattr__


@dataclass(frozen=True, slots=True)
class HistorySnapshot:
    """Immutable copy of H at alert time; the ``histories`` field of alerts.

    Hashable so AD-1 can use alert identity ("two alerts are identical if
    their history sets H are the same") directly as a set member.

    The seqno identity is computed the first time it is asked for and
    kept: every AD filter, checker and hash of the alert reads the same
    tuples.  Every constructor leaves the memo ``None``; the evaluator's
    alerts arrive with it filled from the CE step's key
    (:func:`~repro.core.evaluator.alert_from_key`).
    """

    _entries: Mapping[str, tuple[Update, ...]]
    _identity: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_entries", dict(sorted(self._entries.items()))
        )
        for var, updates in self._entries.items():
            if not updates:
                raise ValueError(f"empty history snapshot for {var!r}")
            seqnos = [u.seqno for u in updates]
            # Entries are most-recent-first, so seqnos must strictly
            # decrease along the tuple.
            if any(a <= b for a, b in zip(seqnos, seqnos[1:])):
                raise ValueError(
                    f"history snapshot for {var!r} not in most-recent-first "
                    f"order: {seqnos}"
                )

    @classmethod
    def from_trusted(
        cls, entries: Mapping[str, tuple[Update, ...]]
    ) -> "HistorySnapshot":
        """Build a snapshot from entries already known to be valid.

        Skips the per-variable ordering validation of ``__post_init__``;
        callers must guarantee non-empty, most-recent-first runs (as the
        evaluator's order-checked buffers are by construction).  This is
        the constructor conditions that do not compile are evaluated
        through: one snapshot per arrival, and per grid point of the
        completeness search.
        """
        self = object.__new__(cls)
        _oset(self, "_entries", dict(sorted(entries.items())))
        _oset(self, "_identity", None)
        return self

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __getitem__(self, varname: str) -> tuple[Update, ...]:
        return self._entries[varname]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def items(self):
        """``(var, updates)`` pairs, variables sorted, runs most recent
        first."""
        return self._entries.items()

    def seqno(self, varname: str) -> int:
        """``a.seqno.x``: seqno of the most recent x-update at trigger time."""
        return self._entries[varname][0].seqno

    def seqnos(self, varname: str) -> tuple[int, ...]:
        """All seqnos in Hx, most recent first."""
        for var, seqnos in self.identity():
            if var == varname:
                return seqnos
        raise KeyError(varname)

    def identity(self) -> tuple:
        """Hashable identity: variable → (seqno, ...) pairs.

        Identity deliberately ignores values: an update's seqno determines
        its snapshot value in a correct system, and AD algorithms in the
        paper compare histories by their sequence numbers.
        """
        identity = self._identity
        if identity is not None:
            return identity
        # Plain loops: a generator expression per variable costs a frame
        # each, and this runs once per snapshot.
        pairs = []
        for var, updates in self._entries.items():
            seqnos = []
            for update in updates:
                seqnos.append(update.seqno)
            pairs.append((var, tuple(seqnos)))
        identity = tuple(pairs)
        _oset(self, "_identity", identity)
        return identity

    def __hash__(self) -> int:
        return hash(self.identity())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistorySnapshot):
            return NotImplemented
        return self.identity() == other.identity()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for var, updates in self._entries.items():
            inner = ", ".join(u.shorthand(False) for u in updates)
            parts.append(f"H{var}<{inner}>")
        return "{" + "; ".join(parts) + "}"


def history_is_consecutive(updates: Iterable[Update]) -> bool:
    """True iff a most-recent-first run of updates has consecutive seqnos.

    This is the check a *conservative* condition performs: it must evaluate
    to false whenever the sequence numbers in any Hx are not consecutive
    (i.e. an update was lost between two retained ones).
    """
    seqnos = [u.seqno for u in updates]
    return all(a == b + 1 for a, b in zip(seqnos, seqnos[1:]))
