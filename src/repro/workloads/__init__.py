"""Workloads: value-process generators, the table scenario matrix, and the
paper's canned example traces."""

from repro.workloads.csv_io import (
    load_workload,
    save_workload,
    workload_from_csv,
    workload_to_csv,
)
from repro.workloads.generators import (
    evenly_spaced,
    event_impulses,
    paired_reactors,
    rising_runs,
    stock_quotes,
    threshold_crossers,
)
from repro.workloads.scenarios import (
    MULTI_VARIABLE_SCENARIOS,
    ROW_ORDER,
    SINGLE_VARIABLE_SCENARIOS,
    Scenario,
    cm_historical,
    run_scenario,
)
from repro.workloads.traces import (
    PaperExample,
    example_1,
    example_2,
    example_3_alerts,
    interleave,
    lemma_6_example,
    theorem_10_example,
    theorem_3_example,
    theorem_4_example,
)

__all__ = [
    "MULTI_VARIABLE_SCENARIOS",
    "PaperExample",
    "ROW_ORDER",
    "SINGLE_VARIABLE_SCENARIOS",
    "Scenario",
    "cm_historical",
    "evenly_spaced",
    "event_impulses",
    "example_1",
    "example_2",
    "example_3_alerts",
    "interleave",
    "load_workload",
    "save_workload",
    "workload_from_csv",
    "workload_to_csv",
    "lemma_6_example",
    "paired_reactors",
    "rising_runs",
    "run_scenario",
    "stock_quotes",
    "theorem_10_example",
    "theorem_3_example",
    "theorem_4_example",
    "threshold_crossers",
]
