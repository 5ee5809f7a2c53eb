"""Core model of the paper: updates, histories, conditions, the CE, and T.

This package implements Section 2 (problem specification) and the analysis
model of Section 3: update and alert tuples, the sequence notation of
§2.2, update histories H, the condition expression language with degree
inference, the ConditionEvaluator, and the reference mapping T used by the
property definitions.
"""

from repro.core.alert import Alert, make_alert
from repro.core.condition import (
    Condition,
    ExpressionCondition,
    PredicateCondition,
    c1,
    c2,
    c3,
    cm,
    conservative_guard,
    sharp_price_drop,
    always_true,
)
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.history import HistorySnapshot
from repro.core.reference import (
    apply_T,
    combine_received,
    count_interleavings,
    merge_single_variable,
)
from repro.core.sequences import (
    is_ordered,
    is_subsequence,
    is_strict_supersequence,
    ordered_union,
    phi,
    project_seqnos,
    spanning_set,
)
from repro.core.update import Update, format_trace, parse_trace, parse_update
from repro.core.wire import (
    AlertEncoding,
    ChecksumAD1,
    WireAlert,
    checksum_histories,
    encode_alert,
    minimum_encoding,
)

__all__ = [
    "Alert",
    "AlertEncoding",
    "ChecksumAD1",
    "WireAlert",
    "checksum_histories",
    "encode_alert",
    "minimum_encoding",
    "Condition",
    "ConditionEvaluator",
    "ExpressionCondition",
    "H",
    "HistorySnapshot",
    "PredicateCondition",
    "Update",
    "always_true",
    "apply_T",
    "c1",
    "c2",
    "c3",
    "cm",
    "combine_received",
    "conservative_guard",
    "count_interleavings",
    "format_trace",
    "is_ordered",
    "is_subsequence",
    "is_strict_supersequence",
    "make_alert",
    "merge_single_variable",
    "ordered_union",
    "parse_trace",
    "parse_update",
    "phi",
    "project_seqnos",
    "sharp_price_drop",
    "spanning_set",
]
