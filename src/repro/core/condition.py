"""Conditions — boolean predicates over update histories (Section 2).

A condition ``c`` evaluates to true or false over the history set H.  Key
classifications from the paper, all surfaced as properties here:

* **degree** with respect to variable x: how deep an ``Hx`` the condition
  needs.  Inferred automatically from the expression AST.
* **non-historical** vs **historical**: degree 1 in every variable vs
  degree > 1 in some variable.
* **conservative** vs **aggressive** triggering (historical conditions
  only): a conservative condition always evaluates false when the seqnos
  in any Hx are not consecutive (i.e. it refuses to trigger across a lost
  update); an aggressive condition substitutes older received values and
  may trigger anyway.

The module also provides the paper's canonical conditions:

* ``c1``  — "reactor temperature is over 3000 degrees" (non-historical);
* ``c2``  — "temperature has risen > 200 degrees since last reading
  *received*" (historical, aggressive);
* ``c3``  — conservative variant of c2: "... since last reading *taken at
  the DM*" (historical, conservative);
* ``cm``  — "temperature difference between the two reactors exceeds 100
  degrees" (two-variable, non-historical, Theorem 10);
* ``sharp_price_drop`` — the stock example from the introduction (> 20%
  drop between two consecutive quotes).

:func:`compile_condition` turns any condition into a plain closure over
the per-variable history buffers — what
:class:`~repro.core.evaluator.ConditionEvaluator` and the completeness
checker call instead of walking the AST.  :meth:`Condition.evaluate`
remains the definition the closures are differentially tested against.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Mapping
from functools import cached_property

from repro.core.expressions import (
    Abs,
    And,
    BinOp,
    BoolConst,
    BoolExpr,
    Compare,
    Const,
    FieldRef,
    H,
    Neg,
    Not,
    Or,
)
from repro.core.history import HistorySnapshot, history_is_consecutive

__all__ = [
    "Condition",
    "ExpressionCondition",
    "PredicateCondition",
    "compile_condition",
    "conservative_guard",
    "c1",
    "c2",
    "c3",
    "cm",
    "sharp_price_drop",
    "always_true",
]

# A practical ceiling: the paper excludes conditions of infinite degree, and
# anything near this bound indicates a mis-built expression rather than a
# legitimate monitoring condition.
MAX_DEGREE = 1024


class Condition(ABC):
    """A named boolean condition over the history set H."""

    def __init__(self, name: str, degrees: Mapping[str, int], conservative: bool) -> None:
        if not name:
            raise ValueError("condition name must be non-empty")
        if not degrees:
            raise ValueError("condition must reference at least one variable")
        for var, degree in degrees.items():
            if not isinstance(degree, int) or degree < 1:
                raise ValueError(f"degree of {var!r} must be a positive int")
            if degree > MAX_DEGREE:
                raise ValueError(
                    f"degree {degree} for {var!r} exceeds the finite-degree "
                    f"bound {MAX_DEGREE} (the paper excludes infinite-degree "
                    "conditions)"
                )
        self.name = name
        self._degrees = dict(degrees)
        self._variables = tuple(sorted(self._degrees))
        self._conservative = bool(conservative)

    # -- classification ----------------------------------------------------
    @property
    def variables(self) -> tuple[str, ...]:
        """The variable set V, in a stable (sorted) order."""
        return self._variables

    @property
    def degrees(self) -> dict[str, int]:
        return dict(self._degrees)

    def degree(self, varname: str) -> int:
        """The condition's degree with respect to ``varname``."""
        return self._degrees[varname]

    @property
    def is_historical(self) -> bool:
        """True iff degree > 1 for some variable (§2)."""
        return any(d > 1 for d in self._degrees.values())

    @property
    def is_conservative(self) -> bool:
        """True iff the condition is conservatively triggered.

        Non-historical conditions are trivially conservative: a degree-1
        history is a single update, so its seqnos are vacuously
        consecutive and the aggressive/conservative distinction is moot.
        """
        return self._conservative or not self.is_historical

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, histories: HistorySnapshot) -> bool:
        """Evaluate the condition; applies the conservative gap-guard first."""
        if self._conservative and not all(
            history_is_consecutive(histories[var]) for var in self._variables
        ):
            return False
        return self._evaluate(histories)

    @abstractmethod
    def _evaluate(self, histories: HistorySnapshot) -> bool:
        """Evaluate the underlying predicate (gap-guard already applied)."""

    # -- derivation ----------------------------------------------------------
    def as_conservative(self, name: str | None = None) -> "Condition":
        """The conservative variant: same predicate plus the gap-guard.

        This is how the paper derives c3 from c2.
        """
        return _ConservativeWrapper(name or f"{self.name}_conservative", self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "conservative" if self.is_conservative else "aggressive"
        degs = ", ".join(f"{v}:{d}" for v, d in sorted(self._degrees.items()))
        return f"<Condition {self.name} [{degs}] {kind}>"


class ExpressionCondition(Condition):
    """A condition defined by an expression AST; degrees are inferred.

    >>> cond = ExpressionCondition("c1", H.x[0].value > 3000)
    >>> cond.degree("x")
    1
    """

    def __init__(self, name: str, expression: BoolExpr, conservative: bool = False) -> None:
        if not isinstance(expression, BoolExpr):
            raise TypeError(
                "condition expression must be boolean-valued (did you forget "
                "a comparison?)"
            )
        degrees = expression.degrees()
        super().__init__(name, degrees, conservative)
        self.expression = expression

    def _evaluate(self, histories: HistorySnapshot) -> bool:
        return bool(self.expression.evaluate(histories))

    @cached_property
    def _closure_source(self) -> str | None:
        """The lambda :func:`compile_condition` evaluates, rendered once
        (source text rather than the function, so conditions stay
        picklable); None when the expression does not render."""
        return _render_closure(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Condition {self.name}: {self.expression!r}>"


class PredicateCondition(Condition):
    """A condition defined by an arbitrary Python predicate over H.

    Degrees must be declared explicitly since they cannot be inferred from
    an opaque callable.  The predicate receives a
    :class:`~repro.core.history.HistorySnapshot` ``h`` — in the live
    evaluator and in the property checkers alike — and must be a pure
    function of it (the paper excludes conditions that keep extra state at
    the CE).  ``h[var]`` is the most-recent-first tuple of ``var``'s
    updates, so ``h[var][i]`` is the paper's ``Hx[-i]``: ``h["x"][0]`` is
    the newest update and ``h["x"][-1]`` (Python's last element) the
    *oldest* one retained, not the paper's ``Hx[-1]``.
    """

    def __init__(
        self,
        name: str,
        degrees: Mapping[str, int],
        predicate,
        conservative: bool = False,
    ) -> None:
        super().__init__(name, degrees, conservative)
        self._predicate = predicate

    def _evaluate(self, histories: HistorySnapshot) -> bool:
        return bool(self._predicate(histories))


class _ConservativeWrapper(Condition):
    """Wraps any condition with the consecutive-seqno guard."""

    def __init__(self, name: str, inner: Condition) -> None:
        super().__init__(name, inner.degrees, conservative=True)
        self._inner = inner

    def _evaluate(self, histories: HistorySnapshot) -> bool:
        # The guard already ran in Condition.evaluate; delegate to the inner
        # predicate without re-applying the inner condition's own guard
        # semantics (the guard is idempotent anyway).
        return self._inner._evaluate(histories)


# ---------------------------------------------------------------------------
# Condition compilation: ExpressionCondition AST -> plain lambda
# ---------------------------------------------------------------------------

class _Unsupported(Exception):
    """An AST node the code generator does not render."""


#: Generated lambda source -> compiled closure.  Keyed on the source text
#: itself (constants rendered with ``repr``, which round-trips floats), so
#: equal keys are equal functions by construction, and conditions rebuilt
#: per run share one ``eval``.
_CLOSURE_CACHE: dict[str, object] = {}


def _render_num(node, names: dict[str, str]) -> str:
    kind = type(node)
    if kind is Const:
        if not math.isfinite(node.value):
            raise _Unsupported("non-finite constant")  # repr is a bare name
        return repr(node.value)
    if kind is FieldRef:
        # Buffers are sequences most-recent-first, so H.x[-i] is buf[i].
        # float() matches FieldRef.evaluate's coercion (seqnos are ints).
        return f"float({names[node.varname]}[{-node.index}].{node.fieldname})"
    if kind is BinOp:
        left = _render_num(node.left, names)
        right = _render_num(node.right, names)
        return f"({left} {node.op} {right})"
    if kind is Neg:
        return f"(-{_render_num(node.operand, names)})"
    if kind is Abs:
        return f"abs({_render_num(node.operand, names)})"
    raise _Unsupported(kind.__name__)


def _render_bool(node, names: dict[str, str]) -> str:
    kind = type(node)
    if kind is Compare:
        left = _render_num(node.left, names)
        right = _render_num(node.right, names)
        return f"({left} {node.op} {right})"
    if kind is And:
        return f"({_render_bool(node.left, names)} and {_render_bool(node.right, names)})"
    if kind is Or:
        return f"({_render_bool(node.left, names)} or {_render_bool(node.right, names)})"
    if kind is Not:
        return f"(not {_render_bool(node.operand, names)})"
    if kind is BoolConst:
        return "True" if node.value else "False"
    raise _Unsupported(kind.__name__)


def _render_closure(condition: ExpressionCondition) -> str | None:
    variables = condition.variables
    names = {var: f"b{i}" for i, var in enumerate(variables)}
    try:
        body = _render_bool(condition.expression, names)
    except _Unsupported:
        return None
    if condition.is_conservative:
        # For non-historical conditions every degree is 1, so the guard is
        # vacuous and no clauses are emitted — exactly Condition.evaluate.
        guards = []
        for var in variables:
            buf = names[var]
            for i in range(condition.degree(var) - 1):
                guards.append(f"{buf}[{i}].seqno == {buf}[{i + 1}].seqno + 1")
        if guards:
            body = "(" + " and ".join(guards) + ") and " + body
    return f"lambda {', '.join(names.values())}: {body}"


def compile_condition(condition: Condition):
    """Compile a condition into ``lambda buf_0, ..., buf_n: bool``.

    Arguments are the per-variable history buffers in sorted-variable
    order, each a sequence of :class:`~repro.core.update.Update`
    most-recent-first and already filled to the variable's degree.

    A plain :class:`ExpressionCondition` whose AST renders is compiled
    to a lambda, the conservative gap-guard of :meth:`Condition.evaluate`
    compiled in as integer seqno-consecutiveness conjuncts; it is
    rendered once and equal renderings share one compiled closure.
    Anything else — an opaque predicate, a subclass that may override an
    evaluation hook, an AST node the generator does not render — gets a
    wrapper that freezes the buffers into a
    :class:`~repro.core.history.HistorySnapshot` and calls
    :meth:`Condition.evaluate`, the oracle the lambdas are
    differentially tested against.
    """
    source = (
        condition._closure_source
        if type(condition) is ExpressionCondition
        else None
    )
    if source is None:
        variables = condition.variables
        evaluate = condition.evaluate

        def holds(*buffers) -> bool:
            return evaluate(
                HistorySnapshot.from_trusted(
                    {var: tuple(buf) for var, buf in zip(variables, buffers)}
                )
            )

        return holds
    fn = _CLOSURE_CACHE.get(source)
    if fn is None:
        fn = _CLOSURE_CACHE[source] = eval(  # noqa: S307 - source is generated from a closed AST
            source, {"abs": abs, "float": float, "__builtins__": {}}
        )
    return fn


def conservative_guard(*varnames: str) -> BoolExpr:
    """An explicit seqno-consecutiveness expression for degree-2 conditions.

    ``conservative_guard("x")`` is ``Hx[0].seqno == Hx[-1].seqno + 1`` —
    the conjunct the paper adds to turn c2 into c3.  For deeper histories
    compose multiple guards or use :meth:`Condition.as_conservative`.
    """
    if not varnames:
        raise ValueError("need at least one variable name")
    expr: BoolExpr | None = None
    for var in varnames:
        clause = H[var][0].seqno == H[var][-1].seqno + 1
        expr = clause if expr is None else (expr & clause)
    assert expr is not None
    return expr


# ---------------------------------------------------------------------------
# Canonical conditions from the paper.
# ---------------------------------------------------------------------------

def c1(threshold: float = 3000.0, varname: str = "x", name: str = "c1") -> ExpressionCondition:
    """"Reactor temperature is over ``threshold`` degrees" (non-historical)."""
    return ExpressionCondition(name, H[varname][0].value > threshold)


def c2(delta: float = 200.0, varname: str = "x", name: str = "c2") -> ExpressionCondition:
    """"Temperature has risen more than ``delta`` since last reading
    *received*" — historical and aggressively triggered: it does not check
    seqno consecutiveness, so a lost update makes it compare against an
    older received value.
    """
    expr = H[varname][0].value - H[varname][-1].value > delta
    return ExpressionCondition(name, expr, conservative=False)


def c3(delta: float = 200.0, varname: str = "x", name: str = "c3") -> ExpressionCondition:
    """Conservative variant of c2: "... since last reading *taken at the
    DM*".  Encodes the seqno guard in the expression, exactly as the paper
    defines c3.
    """
    expr = (H[varname][0].value - H[varname][-1].value > delta) & (
        H[varname][0].seqno == H[varname][-1].seqno + 1
    )
    return ExpressionCondition(name, expr, conservative=True)


def cm(gap: float = 100.0, var_x: str = "x", var_y: str = "y", name: str = "cm") -> ExpressionCondition:
    """Theorem 10's two-variable condition: ``|Hx[0].value − Hy[0].value| >
    gap`` — degree 1 in both variables.
    """
    return ExpressionCondition(name, abs(H[var_x][0].value - H[var_y][0].value) > gap)


def sharp_price_drop(
    fraction: float = 0.2,
    varname: str = "price",
    conservative: bool = False,
    name: str = "sharp_drop",
) -> ExpressionCondition:
    """The introduction's stock example: a drop greater than ``fraction``
    between two consecutive quotes.

    The aggressive form compares against the last *received* quote (this
    is what produces the confusing two-alert scenario in §1); pass
    ``conservative=True`` for the variant that refuses to trigger across a
    lost quote.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    expr = H[varname][0].value < (1.0 - fraction) * H[varname][-1].value
    if conservative:
        expr = expr & (H[varname][0].seqno == H[varname][-1].seqno + 1)
    return ExpressionCondition(name, expr, conservative=conservative)


def always_true(varname: str = "x", name: str = "always") -> ExpressionCondition:
    """Triggers on every update — handy for exercising AD algorithms."""
    return ExpressionCondition(name, H[varname][0].seqno >= 0)
