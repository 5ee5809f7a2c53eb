"""Alerts — the messages CEs send to the AD (Section 2).

An alert is ``a(condname, histories)``: ``condname`` identifies the
condition, ``histories`` is the full H the CE used when the condition
evaluated true.  The histories let the AD identify duplicates and
conflicts.  ``a.seqno.x`` — the alert's sequence number with respect to
variable x — is ``Hx[0].seqno``, the seqno of the last x-update received
when the alert was triggered (§2.2); it is what the orderedness property
and algorithms AD-2/AD-5 examine.

An alert's *identity* ``(condname, ((var, seqnos), …))`` is everything
the AD algorithms read from it (§2: "others need only the update
sequence numbers contained in the histories").  The ``identity_*``
helpers read a seqno run, the paper-style shorthand and the event key
off an identity alone, so code holding only the key — the served AD
path — says the same things an :class:`Alert` says about itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.history import HistorySnapshot
from repro.core.update import Update

__all__ = [
    "Alert",
    "make_alert",
    "identity_event_key",
    "identity_seqnos",
    "identity_shorthand",
]


@dataclass(frozen=True, slots=True)
class Alert:
    """A single alert ``a(condname, histories)``.

    ``source`` records which CE emitted the alert (for analysis and for
    pretty-printing runs); it is *not* part of the alert's identity, since
    "two alerts are considered identical if their history sets H are the
    same" regardless of origin (Algorithm AD-1, §3).
    """

    condname: str
    histories: HistorySnapshot
    source: str = field(default="", compare=False)

    def seqno(self, varname: str) -> int:
        """``a.seqno.x`` = ``Hx[0].seqno`` (§2.2)."""
        return self.histories.seqno(varname)

    def identity(self) -> tuple:
        """Hashable identity used for ΦA set comparisons and by AD-1
        (the seqno half is the snapshot's memo)."""
        return (self.condname, self.histories.identity())

    def with_source(self, source: str) -> "Alert":
        return Alert(self.condname, self.histories, source)

    def shorthand(self) -> str:
        """Paper-style rendering, e.g. ``a(2x, 1y)`` for a two-var alert.

        For degree > 1 histories all seqnos appear, most recent first:
        ``a(3x,1x)`` is an alert that triggered on 3x with 1x as history.
        """
        return identity_shorthand(self.identity())

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.shorthand()


def make_alert(
    condname: str,
    histories: dict[str, tuple[Update, ...] | list[Update]],
    source: str = "",
) -> Alert:
    """Convenience constructor used by tests and examples.

    ``histories`` maps variable → updates most-recent-first, e.g.
    ``make_alert("c2", {"x": [u3, u1]})`` for an alert that triggered on
    update 3 with update 1 as the previous history entry.
    """
    snapshot = HistorySnapshot({var: tuple(ups) for var, ups in histories.items()})
    return Alert(condname, snapshot, source)


def identity_seqnos(key: tuple, varname: str) -> tuple[int, ...]:
    """The seqnos of ``varname`` in the alert identified by ``key``,
    most recent first; KeyError when it has no ``varname`` history."""
    for var, seqnos in key[1]:
        if var == varname:
            return seqnos
    raise KeyError(varname)


def identity_shorthand(key: tuple) -> str:
    """:meth:`Alert.shorthand` of the alert identified by ``key``."""
    parts = []
    for var, seqnos in key[1]:
        parts.append(",".join([f"{s}{var}" for s in seqnos]))
    return f"a({'; '.join(parts)})"


def identity_event_key(key: tuple, variables: Iterable[str]) -> tuple:
    """The real-world *event* the alert identified by ``key`` reports:
    its condition name and head-seqno vector.

    Two CEs that observed the same trigger through different histories
    (a lossy replica has gaps where its peer does not) emit alerts with
    different identities but the same head seqnos — the same event, seen
    twice.  The quality metrics and the adaptive displayer key on this
    coarser equivalence: full identity distinguishes *evidence*, the
    event key distinguishes *occurrences*.
    """
    heads = dict(key[1])
    return (key[0], tuple([heads[var][0] for var in variables]))
