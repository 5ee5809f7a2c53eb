"""Condition expression AST (Section 2).

A condition is "an expression defined on values of real world variables"
that evaluates to true or false over the update histories H.  This module
provides a small embedded DSL for writing such expressions in the paper's
own notation::

    from repro.core.expressions import H

    c1_expr = H.x[0].value > 3000
    c2_expr = H.x[0].value - H.x[-1].value > 200
    c3_expr = c2_expr & (H.x[0].seqno == H.x[-1].seqno + 1)
    cm_expr = abs(H.x[0].value - H.y[0].value) > 100

Expression objects know how to

* **evaluate** against a frozen
  :class:`~repro.core.history.HistorySnapshot` — the definition the
  compiled closures of :func:`repro.core.condition.compile_condition`
  are differentially tested against;
* **infer degrees**: the degree of the expression with respect to variable
  x is ``max(-index) + 1`` over every ``H.x[index]`` reference — exactly
  the paper's rule that "a condition using only Hx[0] and Hx[-2] is of
  degree 3" (§2);
* **render** themselves readably for logs and reports.

The AST deliberately has no clock, no aggregation over unbounded history
and no external state, enforcing the paper's exclusions (§2: no infinite
degree, no watermark-style CE state, no notion of time).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping
from typing import Union

from repro.core.history import HistorySnapshot
from repro.core.update import Update

__all__ = [
    "Expr",
    "BoolExpr",
    "Const",
    "FieldRef",
    "UpdateRef",
    "VariableRef",
    "HistoryNamespace",
    "H",
    "Compare",
    "BinOp",
    "Neg",
    "Abs",
    "And",
    "Or",
    "Not",
    "BoolConst",
]

Numeric = Union[int, float]


def _resolve(histories: HistorySnapshot, var: str, index: int) -> Update:
    """Fetch the paper's ``H[var][index]`` (index 0 or negative)."""
    # Snapshot tuples are most-recent-first: index 0 -> [0], -1 -> [1]...
    entries = histories[var]
    offset = -index
    if offset >= len(entries):
        raise LookupError(
            f"snapshot for {var!r} has only {len(entries)} entries, "
            f"cannot resolve index {index}"
        )
    return entries[offset]


class Expr:
    """Base class for numeric-valued expression nodes.

    Arithmetic and comparison operators build larger ASTs; comparisons
    produce :class:`BoolExpr` nodes.
    """

    def evaluate(self, histories: HistorySnapshot) -> float:
        raise NotImplementedError

    def degrees(self) -> dict[str, int]:
        """Per-variable degree requirement of this (sub)expression."""
        acc: dict[str, int] = {}
        self._collect_degrees(acc)
        return acc

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        raise NotImplementedError

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other: "Expr | Numeric") -> "BinOp":
        return BinOp("+", self, _lift(other))

    def __radd__(self, other: Numeric) -> "BinOp":
        return BinOp("+", _lift(other), self)

    def __sub__(self, other: "Expr | Numeric") -> "BinOp":
        return BinOp("-", self, _lift(other))

    def __rsub__(self, other: Numeric) -> "BinOp":
        return BinOp("-", _lift(other), self)

    def __mul__(self, other: "Expr | Numeric") -> "BinOp":
        return BinOp("*", self, _lift(other))

    def __rmul__(self, other: Numeric) -> "BinOp":
        return BinOp("*", _lift(other), self)

    def __truediv__(self, other: "Expr | Numeric") -> "BinOp":
        return BinOp("/", self, _lift(other))

    def __rtruediv__(self, other: Numeric) -> "BinOp":
        return BinOp("/", _lift(other), self)

    def __neg__(self) -> "Neg":
        return Neg(self)

    def __abs__(self) -> "Abs":
        return Abs(self)

    def __gt__(self, other: "Expr | Numeric") -> "Compare":
        return Compare(">", self, _lift(other))

    def __ge__(self, other: "Expr | Numeric") -> "Compare":
        return Compare(">=", self, _lift(other))

    def __lt__(self, other: "Expr | Numeric") -> "Compare":
        return Compare("<", self, _lift(other))

    def __le__(self, other: "Expr | Numeric") -> "Compare":
        return Compare("<=", self, _lift(other))

    # NOTE: == and != intentionally build Compare nodes; expression objects
    # therefore do not support useful value equality. Tests compare renders.
    def __eq__(self, other: object):  # type: ignore[override]
        return Compare("==", self, _lift(other))  # type: ignore[arg-type]

    def __ne__(self, other: object):  # type: ignore[override]
        return Compare("!=", self, _lift(other))  # type: ignore[arg-type]

    __hash__ = None  # type: ignore[assignment]


def _lift(value: "Expr | Numeric") -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in a condition expression")


class Const(Expr):
    """A numeric literal."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def evaluate(self, histories: HistorySnapshot) -> float:
        return self.value

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        pass

    def __repr__(self) -> str:
        return f"{self.value:g}"


class FieldRef(Expr):
    """``H.x[index].value`` or ``H.x[index].seqno`` — the AST leaves."""

    def __init__(self, varname: str, index: int, fieldname: str) -> None:
        if index > 0:
            raise ValueError("history indices must be 0 or negative")
        if fieldname not in ("value", "seqno"):
            raise ValueError(f"unknown update field {fieldname!r}")
        self.varname = varname
        self.index = index
        self.fieldname = fieldname
        self._get_field = operator.attrgetter(fieldname)

    def evaluate(self, histories: HistorySnapshot) -> float:
        update = _resolve(histories, self.varname, self.index)
        return float(self._get_field(update))

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        needed = -self.index + 1
        acc[self.varname] = max(acc.get(self.varname, 0), needed)

    def __repr__(self) -> str:
        return f"H{self.varname}[{self.index}].{self.fieldname}"


class UpdateRef:
    """``H.x[index]`` — exposes ``.value`` and ``.seqno`` field refs."""

    def __init__(self, varname: str, index: int) -> None:
        if index > 0:
            raise ValueError(
                "history indices are 0 or negative (Hx[0] is the most recent)"
            )
        self._varname = varname
        self._index = index

    @property
    def value(self) -> FieldRef:
        return FieldRef(self._varname, self._index, "value")

    @property
    def seqno(self) -> FieldRef:
        return FieldRef(self._varname, self._index, "seqno")

    def __repr__(self) -> str:
        return f"H{self._varname}[{self._index}]"


class VariableRef:
    """``H.x`` — indexable into :class:`UpdateRef` slots."""

    def __init__(self, varname: str) -> None:
        self._varname = varname

    def __getitem__(self, index: int) -> UpdateRef:
        return UpdateRef(self._varname, index)

    def __repr__(self) -> str:
        return f"H{self._varname}"


class HistoryNamespace:
    """The ``H`` entry point: ``H.x[0].value``, ``H["price"][-1].seqno``."""

    def __getattr__(self, varname: str) -> VariableRef:
        if varname.startswith("_"):
            raise AttributeError(varname)
        return VariableRef(varname)

    def __getitem__(self, varname: str) -> VariableRef:
        return VariableRef(varname)


H = HistoryNamespace()


class BinOp(Expr):
    """Arithmetic node: +, -, *, /."""

    _OPS: Mapping[str, Callable[[float, float], float]] = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "/": operator.truediv,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self._fn = self._OPS[op]
        self.left = left
        self.right = right

    def evaluate(self, histories: HistorySnapshot) -> float:
        return self._fn(
            self.left.evaluate(histories), self.right.evaluate(histories)
        )

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        self.left._collect_degrees(acc)
        self.right._collect_degrees(acc)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Neg(Expr):
    """Unary minus."""

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def evaluate(self, histories: HistorySnapshot) -> float:
        return -self.operand.evaluate(histories)

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        self.operand._collect_degrees(acc)

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


class Abs(Expr):
    """Absolute value, for conditions like ``|Hx[0].value - Hy[0].value|``."""

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def evaluate(self, histories: HistorySnapshot) -> float:
        return abs(self.operand.evaluate(histories))

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        self.operand._collect_degrees(acc)

    def __repr__(self) -> str:
        return f"|{self.operand!r}|"


class BoolExpr:
    """Base class for boolean-valued nodes; supports ``&``, ``|``, ``~``."""

    def evaluate(self, histories: HistorySnapshot) -> bool:
        raise NotImplementedError

    def degrees(self) -> dict[str, int]:
        acc: dict[str, int] = {}
        self._collect_degrees(acc)
        return acc

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        raise NotImplementedError

    def __and__(self, other: "BoolExpr") -> "And":
        return And(self, _lift_bool(other))

    def __or__(self, other: "BoolExpr") -> "Or":
        return Or(self, _lift_bool(other))

    def __invert__(self) -> "Not":
        return Not(self)


def _lift_bool(value: "BoolExpr | bool") -> BoolExpr:
    if isinstance(value, BoolExpr):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    raise TypeError(f"cannot use {type(value).__name__} as a boolean expression")


class BoolConst(BoolExpr):
    """A boolean literal (used when composing with plain True/False)."""

    def __init__(self, value: bool) -> None:
        self.value = bool(value)

    def evaluate(self, histories: HistorySnapshot) -> bool:
        return self.value

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        pass

    def __repr__(self) -> str:
        return "true" if self.value else "false"


class Compare(BoolExpr):
    """Comparison node: >, >=, <, <=, ==, !=."""

    _OPS: Mapping[str, Callable[[float, float], bool]] = {
        ">": operator.gt,
        ">=": operator.ge,
        "<": operator.lt,
        "<=": operator.le,
        "==": operator.eq,
        "!=": operator.ne,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self._fn = self._OPS[op]
        self.left = left
        self.right = right

    def evaluate(self, histories: HistorySnapshot) -> bool:
        return self._fn(
            self.left.evaluate(histories), self.right.evaluate(histories)
        )

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        self.left._collect_degrees(acc)
        self.right._collect_degrees(acc)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(BoolExpr):
    def __init__(self, left: BoolExpr, right: BoolExpr) -> None:
        self.left = left
        self.right = right

    def evaluate(self, histories: HistorySnapshot) -> bool:
        return self.left.evaluate(histories) and self.right.evaluate(histories)

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        self.left._collect_degrees(acc)
        self.right._collect_degrees(acc)

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(BoolExpr):
    def __init__(self, left: BoolExpr, right: BoolExpr) -> None:
        self.left = left
        self.right = right

    def evaluate(self, histories: HistorySnapshot) -> bool:
        return self.left.evaluate(histories) or self.right.evaluate(histories)

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        self.left._collect_degrees(acc)
        self.right._collect_degrees(acc)

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class Not(BoolExpr):
    def __init__(self, operand: BoolExpr) -> None:
        self.operand = operand

    def evaluate(self, histories: HistorySnapshot) -> bool:
        return not self.operand.evaluate(histories)

    def _collect_degrees(self, acc: dict[str, int]) -> None:
        self.operand._collect_degrees(acc)

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"
