"""High-throughput trial engine.

The randomized experiments are thousands of independent simulated trials;
this package turns them into a planned, batched, reusable-pool workload:

* :mod:`repro.engine.spec` — picklable :class:`TrialSpec` descriptors
  (scenario named by matrix/row, resolved inside the executing process);
* :mod:`repro.engine.core` — :class:`TrialEngine`, the persistent
  executor (``processes="auto"``, bounded chunking, unordered completion
  with deterministic reassembly);
* :mod:`repro.engine.plan` — canonical trial-matrix layout per table, so
  every entry point derives identical seeds.
* :mod:`repro.engine.sweep` — :class:`~repro.engine.sweep.Sweep`, the
  one declared shape of every parameter sweep (``repro sweep <name>``).
"""

from repro.engine.core import (
    DEFAULT_CHUNKS_PER_WORKER,
    INLINE_ENGINE,
    MAX_CHUNKSIZE,
    TrialEngine,
    default_chunksize,
    resolve_processes,
)
from repro.engine.plan import TablePlan, plan_table, tabulate
from repro.engine.spec import SCENARIO_MATRICES, TrialSpec

__all__ = [
    "DEFAULT_CHUNKS_PER_WORKER",
    "INLINE_ENGINE",
    "MAX_CHUNKSIZE",
    "SCENARIO_MATRICES",
    "TablePlan",
    "TrialEngine",
    "TrialSpec",
    "default_chunksize",
    "plan_table",
    "resolve_processes",
    "tabulate",
]
