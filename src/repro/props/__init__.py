"""Property checkers: orderedness, completeness, consistency, domination,
maximality (Sections 3.1, 4.1, Appendix C)."""

from repro.props.completeness import (
    CompletenessResult,
    check_completeness_multi,
    check_completeness_single,
)
from repro.props.consistency import (
    ConsistencyResult,
    check_consistency_multi,
    check_consistency_single,
)
from repro.props.domination import DominationResult, dominates_on, test_domination
from repro.props.exhaustive import (
    ExhaustiveReport,
    PropertyClassification,
    classify_trace_pair,
    count_merge_orders,
    iter_merge_orders,
)
from repro.props.fold import VerdictFold
from repro.props.maximality import (
    MaximalityResult,
    greedy_maximality_probe,
    probe_streams,
)
from repro.props.orderedness import (
    OrderednessResult,
    check_orderedness,
)
from repro.props.report import (
    PropertyReport,
    PropertyTally,
    evaluate_run,
)
from repro.props.statespace import (
    VerificationResult,
    degree2_alphabet,
    two_variable_alphabet,
    verify_invariant_exhaustively,
)

__all__ = [
    "CompletenessResult",
    "ConsistencyResult",
    "DominationResult",
    "ExhaustiveReport",
    "PropertyClassification",
    "classify_trace_pair",
    "count_merge_orders",
    "iter_merge_orders",
    "MaximalityResult",
    "OrderednessResult",
    "PropertyReport",
    "PropertyTally",
    "VerdictFold",
    "VerificationResult",
    "degree2_alphabet",
    "two_variable_alphabet",
    "verify_invariant_exhaustively",
    "check_completeness_multi",
    "check_completeness_single",
    "check_consistency_multi",
    "check_consistency_single",
    "check_orderedness",
    "dominates_on",
    "evaluate_run",
    "greedy_maximality_probe",
    "probe_streams",
    "test_domination",
]
