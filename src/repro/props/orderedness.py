"""Orderedness — property 1 of Section 3.1 / Appendix C.

A replicated system is *ordered* if every alert sequence A it produces is
ordered: for every variable x in V, the projection ``Πx A`` (the sequence
of ``a.seqno.x`` values) is non-decreasing.  The corresponding
non-replicated system always delivers alerts in this order, so an ordered
replicated system "behaves similarly in this respect".
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.sequences import first_inversion

__all__ = ["OrderednessResult", "check_orderedness"]


@dataclass(frozen=True)
class OrderednessResult:
    """Verdict plus, on failure, the first witnessed inversion."""

    ordered: bool
    #: Variable in which the first inversion occurs (None when ordered).
    violating_variable: str | None = None
    #: Index into A of the alert that regresses (None when ordered).
    violation_index: int | None = None

    def __bool__(self) -> bool:
        return self.ordered


def check_orderedness(
    keys: Sequence[tuple], variables: Iterable[str]
) -> OrderednessResult:
    """Decide orderedness of A, given as its alerts' identity keys, with
    respect to every variable in V.

    A plain scan of each projection: they are at most a few dozen
    elements long, where a vectorised ``diff`` costs more than the loop.
    """
    for var in variables:
        heads = []
        for key in keys:
            for name, seqnos in key[1]:
                if name == var:
                    heads.append(seqnos[0])
                    break
            else:
                raise KeyError(var)
        index = first_inversion(heads)
        if index is not None:
            return OrderednessResult(False, var, index)
    return OrderednessResult(True)
