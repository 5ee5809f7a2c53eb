"""JSON serialization for traces, alerts and counterexamples.

Runs are reproducible from ``(seed, config)``, but the interesting
artifacts — a violating trace pair, a minimized counterexample, a
recorded workload — deserve to outlive the process.  This module gives
every such artifact a stable JSON form:

* updates and update traces (:func:`update_to_json` / :func:`trace_to_json`);
* alerts with their history snapshots (:func:`alert_to_json`);
* :class:`~repro.analysis.witness.Counterexample` bundles, including the
  condition *when it was built from text or is a canonical paper
  condition* (conditions defined by arbitrary Python predicates cannot be
  serialised; attempting to raises, loudly).

All loaders validate shape and re-derive invariants (history ordering,
seqno positivity) through the normal constructors, so a corrupted file
fails the same way malformed data would anywhere else in the library.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any

from repro.analysis.witness import Counterexample
from repro.core.alert import Alert
from repro.core.condition import Condition, ExpressionCondition
from repro.core.history import HistorySnapshot
from repro.core.parser import parse_condition
from repro.core.update import Update

__all__ = [
    "update_to_json",
    "update_from_json",
    "trace_to_json",
    "trace_from_json",
    "alert_to_json",
    "alert_from_json",
    "alert_canonical_line",
    "canonical_line",
    "condition_to_json",
    "condition_from_json",
    "counterexample_to_json",
    "counterexample_from_json",
    "dump_counterexample",
    "load_counterexample",
]


# -- updates -----------------------------------------------------------------

def update_to_json(update: Update) -> dict[str, Any]:
    return {"var": update.varname, "seqno": update.seqno, "value": update.value}


def update_from_json(data: dict[str, Any]) -> Update:
    return Update(str(data["var"]), int(data["seqno"]), float(data["value"]))


def trace_to_json(trace: Sequence[Update]) -> list[dict[str, Any]]:
    return [update_to_json(u) for u in trace]


def trace_from_json(data: Sequence[dict[str, Any]]) -> list[Update]:
    return [update_from_json(entry) for entry in data]


# -- alerts ------------------------------------------------------------------

def alert_to_json(alert: Alert) -> dict[str, Any]:
    return {
        "condname": alert.condname,
        "source": alert.source,
        "histories": {
            var: trace_to_json(alert.histories[var])
            for var in alert.histories.variables
        },
    }


def alert_from_json(data: dict[str, Any]) -> Alert:
    histories = HistorySnapshot(
        {
            var: tuple(trace_from_json(entries))
            for var, entries in data["histories"].items()
        }
    )
    return Alert(str(data["condname"]), histories, str(data.get("source", "")))


def _dumps_line(condname, source, windows) -> str:
    data = {
        "condname": condname,
        "source": source,
        "histories": {var: trace_to_json(updates) for var, updates in windows},
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def alert_canonical_line(alert: Alert) -> str:
    """One canonical JSON line per alert — the byte-identity carrier.

    Sorted keys, no whitespace: two alert sequences are byte-identical
    under this rendering iff they agree on condition name, source CE and
    every ``(seqno, value)`` history entry.  The service conformance
    harness (:mod:`repro.service`) frames these lines to compare a live
    runtime's displayed output against the simulator's.  The line is
    ``json.dumps(alert_to_json(alert), sort_keys=True, separators=(",",
    ":"))`` byte for byte, rendered by :func:`canonical_line`.
    """
    return canonical_line(alert.condname, alert.source, alert.histories.items())


def canonical_line(condname: str, source: str, windows) -> str:
    """:func:`alert_canonical_line` of the alert ``a(condname, H)`` raised
    by ``source``, given H as ``windows``: ``(var, updates)`` pairs in
    sorted-variable order, each run most recent first — what
    :meth:`~repro.core.evaluator.ConditionEvaluator.windows` returns, so
    an alert that was only ever a key is rendered without being built.

    The line is formatted directly — the keys are fixed, the variables
    sorted, and JSON renders a finite float as its ``repr`` — and only a
    window carrying anything but ``str`` names, ``int`` seqnos and finite
    ``float`` values takes the detour through a dict and the general
    encoder.
    """
    try:
        histories = []
        for var, updates in windows:
            entries = []
            for update in updates:
                seqno, value = update.seqno, update.value
                if (
                    type(seqno) is not int
                    or type(value) is not float
                    or not isfinite(value)
                ):
                    return _dumps_line(condname, source, windows)
                entries.append(
                    f'{{"seqno":{seqno},"value":{value!r},'
                    f'"var":{_quote(update.varname)}}}'
                )
            histories.append(f'{_quote(var)}:[{",".join(entries)}]')
        return (
            f'{{"condname":{_quote(condname)},'
            f'"histories":{{{",".join(histories)}}},'
            f'"source":{_quote(source)}}}'
        )
    except TypeError:  # _quote takes str only
        return _dumps_line(condname, source, windows)


# -- conditions ----------------------------------------------------------------

def expression_to_text(node) -> str:
    """Render an expression AST as parser-compatible text.

    The inverse of :func:`repro.core.parser.parse_expression`: walking the
    AST directly (rather than munging ``repr``) guarantees the round trip.
    """
    from repro.core import expressions as ex

    if isinstance(node, ex.Const):
        return f"{node.value:g}"
    if isinstance(node, ex.FieldRef):
        return f"H[{node.varname!r}][{node.index}].{node.fieldname}"
    if isinstance(node, ex.BinOp):
        return (
            f"({expression_to_text(node.left)} {node.op} "
            f"{expression_to_text(node.right)})"
        )
    if isinstance(node, ex.Neg):
        # Fold a negated literal into the literal itself so the text form
        # is a fixpoint under parse/render (the parser folds "-5" too).
        if isinstance(node.operand, ex.Const):
            return f"{-node.operand.value:g}"
        return f"(-{expression_to_text(node.operand)})"
    if isinstance(node, ex.Abs):
        return f"abs({expression_to_text(node.operand)})"
    if isinstance(node, ex.Compare):
        return (
            f"({expression_to_text(node.left)} {node.op} "
            f"{expression_to_text(node.right)})"
        )
    if isinstance(node, ex.And):
        return (
            f"({expression_to_text(node.left)} and "
            f"{expression_to_text(node.right)})"
        )
    if isinstance(node, ex.Or):
        return (
            f"({expression_to_text(node.left)} or "
            f"{expression_to_text(node.right)})"
        )
    if isinstance(node, ex.Not):
        return f"(not {expression_to_text(node.operand)})"
    raise TypeError(
        f"cannot render {type(node).__name__} as text (boolean constants "
        "have no parser form)"
    )


def condition_to_json(condition: Condition) -> dict[str, Any]:
    """Serialise a condition via its expression text.

    Works for :class:`ExpressionCondition`; opaque predicate conditions
    raise TypeError — they have no faithful textual form.
    """
    if not isinstance(condition, ExpressionCondition):
        raise TypeError(
            f"cannot serialise {type(condition).__name__}: only expression "
            "conditions have a textual form"
        )
    return {
        "name": condition.name,
        "expression": expression_to_text(condition.expression),
        "conservative": condition._conservative,
    }


def condition_from_json(data: dict[str, Any]) -> ExpressionCondition:
    return parse_condition(
        str(data["name"]),
        str(data["expression"]),
        conservative=bool(data.get("conservative", False)),
    )


# -- counterexamples -----------------------------------------------------------

def counterexample_to_json(counterexample: Counterexample) -> dict[str, Any]:
    return {
        "violation": counterexample.violation,
        "ad_algorithm": counterexample.ad_algorithm,
        "condition": condition_to_json(counterexample.condition),
        "traces": [trace_to_json(trace) for trace in counterexample.traces],
        "arrival_pattern": list(counterexample.arrival_pattern),
        "displayed": [alert_to_json(a) for a in counterexample.displayed],
    }


def counterexample_from_json(data: dict[str, Any]) -> Counterexample:
    return Counterexample(
        condition=condition_from_json(data["condition"]),
        violation=str(data["violation"]),
        traces=tuple(
            tuple(trace_from_json(trace)) for trace in data["traces"]
        ),
        arrival_pattern=tuple(int(i) for i in data["arrival_pattern"]),
        ad_algorithm=str(data["ad_algorithm"]),
        displayed=tuple(alert_from_json(a) for a in data["displayed"]),
    )


def dump_counterexample(counterexample: Counterexample, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(counterexample_to_json(counterexample), handle, indent=2)


def load_counterexample(path: str) -> Counterexample:
    with open(path) as handle:
        return counterexample_from_json(json.load(handle))
