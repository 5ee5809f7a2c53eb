"""Multiple-condition systems (Appendix D): Example 4, the Figure D-7(c)
per-condition AD (:class:`DemuxAD`) and the Figure D-8 reduction to
``C = A ∨ B`` (:class:`DisjunctionCondition`)."""

from repro.multicondition.combined import (
    DisjunctionCondition,
    example_4,
    trim_histories,
)
from repro.multicondition.system import (
    DemuxAD,
    MultiConditionResult,
    MultiConditionSystem,
    colocated_system,
)

__all__ = [
    "DemuxAD",
    "DisjunctionCondition",
    "MultiConditionResult",
    "MultiConditionSystem",
    "colocated_system",
    "example_4",
    "trim_histories",
]
