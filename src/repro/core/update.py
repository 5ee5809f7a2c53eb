"""Data updates — the messages DMs broadcast (Section 2).

An update is the tuple ``u(varname, seqno, value)``:

* ``varname`` identifies the real-world variable being monitored;
* ``seqno`` uniquely identifies the update in the stream from that
  variable — the DM keeps a counter incremented for every update, so
  sequence numbers from one variable are *consecutive*;
* ``value`` is a full snapshot of the variable (never a delta), so an
  update remains useful even if its predecessor was lost.

The paper writes updates as ``7x(3000)`` — the seventh update of variable
x reporting the value 3000 — or just ``7x`` when the value is irrelevant.
:func:`parse_update` and :meth:`Update.shorthand` implement that notation,
which the test-suite and examples use heavily to transcribe the paper's
traces verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Update", "parse_update", "parse_trace", "format_trace"]

_SHORTHAND_RE = re.compile(
    r"^\s*(?P<seqno>\d+)\s*(?P<var>[A-Za-z_][A-Za-z_0-9]*)"
    r"\s*(?:\(\s*(?P<value>-?\d+(?:\.\d+)?)\s*\))?\s*$"
)


@dataclass(frozen=True, order=True, slots=True)
class Update:
    """A single data update ``u(varname, seqno, value)``.

    Ordering sorts by ``(varname, seqno)`` so that sorted containers of
    same-variable updates come out in stream order.  ``value`` is excluded
    from ordering and from hashing-relevant identity concerns: two updates
    with the same variable and seqno are the same point in the stream and
    always carry the same snapshot in a correct system (the DM sends each
    seqno once).
    """

    varname: str
    seqno: int
    value: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not self.varname:
            raise ValueError("update varname must be non-empty")
        if self.seqno < 0:
            raise ValueError(f"update seqno must be non-negative, got {self.seqno}")

    def shorthand(self, with_value: bool = True) -> str:
        """Render in the paper's ``7x(3000)`` notation."""
        if with_value:
            value = self.value
            rendered = f"{value:g}"
            return f"{self.seqno}{self.varname}({rendered})"
        return f"{self.seqno}{self.varname}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.shorthand()

    def replace_value(self, value: float) -> "Update":
        """A copy of this update carrying a different snapshot value."""
        return Update(self.varname, self.seqno, value)


def parse_update(text: str, default_value: float = 0.0) -> Update:
    """Parse the paper's shorthand: ``"7x(3000)"`` or ``"7x"``.

    The value defaults to ``default_value`` when omitted, matching the
    paper's habit of writing just ``7x`` "when the actual update values are
    irrelevant".
    """
    match = _SHORTHAND_RE.match(text)
    if match is None:
        raise ValueError(f"cannot parse update shorthand: {text!r}")
    value_text = match.group("value")
    value = float(value_text) if value_text is not None else default_value
    return Update(match.group("var"), int(match.group("seqno")), value)


def parse_trace(text: str, default_value: float = 0.0) -> list[Update]:
    """Parse a comma/whitespace separated trace like ``"1x(2900), 2x(3100)"``.

    Used throughout the tests to transcribe the paper's example traces.
    """
    stripped = text.strip()
    if not stripped:
        return []
    parts = [p for p in re.split(r"[,\s]+", stripped) if p]
    # Re-join shorthand split across the value parentheses, e.g. "7x(3" "000)".
    # Splitting on whitespace/commas cannot break inside "(...)" because the
    # shorthand contains no spaces, so a straight parse of each part suffices.
    return [parse_update(part, default_value) for part in parts]


def format_trace(updates: Any, with_values: bool = False) -> str:
    """Render a sequence of updates as ``⟨1x, 2x, 3x⟩``-style text."""
    inner = ", ".join(u.shorthand(with_value=with_values) for u in updates)
    return f"<{inner}>"
