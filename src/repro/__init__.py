"""repro — Replicated Condition Monitoring.

A from-scratch reproduction of *"Replicated condition monitoring"*
(Yongqiang Huang and Hector Garcia-Molina, PODC 2001): the condition
monitoring model (Data Monitors, Condition Evaluators, Alert Displayers),
the six AD filtering algorithms AD-1 … AD-6, exact checkers for the
paper's three correctness properties (orderedness, completeness,
consistency), and a deterministic discrete-event simulator that
regenerates every table and theorem-level claim in the paper.

Quickstart::

    from repro import H, ExpressionCondition, SystemConfig, run_system

    overheat = ExpressionCondition("overheat", H.reactor[0].value > 3000)
    workload = {"reactor": [(t * 10.0, 2900 + 30 * t) for t in range(20)]}
    config = SystemConfig(replication=2, ad_algorithm="AD-1", front_loss=0.2)
    result = run_system(overheat, workload, config, seed=7)
    print([a.shorthand() for a in result.displayed])
    print(result.evaluate_properties().summary)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.components import (
    ADNode,
    CENode,
    DataMonitor,
    MonitoringSystem,
    RunResult,
    SystemConfig,
    run_system,
)
from repro.core import (
    Alert,
    Condition,
    ConditionEvaluator,
    ExpressionCondition,
    H,
    HistorySnapshot,
    PredicateCondition,
    Update,
    always_true,
    apply_T,
    c1,
    c2,
    c3,
    cm,
    make_alert,
    merge_single_variable,
    ordered_union,
    parse_trace,
    parse_update,
    sharp_price_drop,
)
from repro.displayers import (
    AD1,
    AD2,
    AD3,
    AD4,
    AD5,
    AD6,
    ADAlgorithm,
    PassThrough,
    make_ad,
    run_ad,
)
from repro.multicondition import DemuxAD, DisjunctionCondition
from repro.props import (
    PropertyReport,
    PropertyTally,
    check_consistency_multi,
    check_consistency_single,
    check_orderedness,
    evaluate_run,
)
from repro.simulation import (
    CrashSchedule,
    FixedDelay,
    Kernel,
    LossyFifoLink,
    RandomStreams,
    ReliableLink,
    UniformDelay,
)

__version__ = "1.0.0"

__all__ = [
    "AD1",
    "AD2",
    "AD3",
    "AD4",
    "AD5",
    "AD6",
    "ADAlgorithm",
    "ADNode",
    "Alert",
    "CENode",
    "Condition",
    "ConditionEvaluator",
    "CrashSchedule",
    "DataMonitor",
    "DemuxAD",
    "DisjunctionCondition",
    "ExpressionCondition",
    "FixedDelay",
    "H",
    "HistorySnapshot",
    "Kernel",
    "LossyFifoLink",
    "MonitoringSystem",
    "PassThrough",
    "PredicateCondition",
    "PropertyReport",
    "PropertyTally",
    "RandomStreams",
    "ReliableLink",
    "RunResult",
    "SystemConfig",
    "UniformDelay",
    "Update",
    "always_true",
    "apply_T",
    "c1",
    "c2",
    "c3",
    "check_consistency_multi",
    "check_consistency_single",
    "check_orderedness",
    "cm",
    "evaluate_run",
    "make_ad",
    "make_alert",
    "merge_single_variable",
    "ordered_union",
    "parse_trace",
    "parse_update",
    "run_ad",
    "run_system",
    "sharp_price_drop",
    "__version__",
]
