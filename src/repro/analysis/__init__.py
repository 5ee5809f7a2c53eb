"""Analysis: run metrics, table regeneration, experiment drivers."""

from repro.analysis.experiments import (
    AvailabilityPoint,
    availability_experiment,
    collect_arrival_streams,
    consistency_property,
    domination_experiment,
    maximality_experiment,
    strict_orderedness_property,
)
from repro.analysis.witness import (
    Counterexample,
    counterexample_from_run,
    find_violation,
    replay,
    shrink_counterexample,
)
from repro.analysis.compare import (
    AlgorithmComparison,
    ComparisonRow,
    compare_algorithms,
    compare_run,
)
from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.analysis.repro_report import (
    ReproductionReport,
    SectionResult,
    generate_report,
)
from repro.analysis.sweeps import LOSS_SWEEP, REPLICATION_SWEEP
from repro.analysis.tables import (
    EXPECTED_GRIDS,
    TableResult,
    build_table,
    grid_matches,
    render_table,
)

__all__ = [
    "LOSS_SWEEP",
    "REPLICATION_SWEEP",
    "AvailabilityPoint",
    "AlgorithmComparison",
    "ComparisonRow",
    "Counterexample",
    "compare_algorithms",
    "compare_run",
    "ReproductionReport",
    "SectionResult",
    "generate_report",
    "counterexample_from_run",
    "find_violation",
    "replay",
    "shrink_counterexample",
    "EXPECTED_GRIDS",
    "RunMetrics",
    "TableResult",
    "availability_experiment",
    "build_table",
    "collect_arrival_streams",
    "collect_metrics",
    "consistency_property",
    "domination_experiment",
    "grid_matches",
    "maximality_experiment",
    "render_table",
    "strict_orderedness_property",
]
