"""Coverage-guided simulation fuzzing and full-simulator witness shrinking.

The table experiments witness the paper's ✗-cells by *sampling* seeds;
this package turns the observability and fault-injection machinery into
a correctness tool that *searches*:

* :mod:`repro.fuzz.coverage` — behaviour signatures of runs (which drop
  and AD-rejection reasons fired, per-stage count buckets, the property
  verdict vector);
* :mod:`repro.fuzz.engine` — the corpus-keeping fuzz loop
  (:class:`FuzzEngine`), which reseeds corpus entries that reached new
  coverage, scheduling batches through the existing
  :class:`~repro.engine.core.TrialEngine` pool and deduplicating
  findings by violating signature;
* :mod:`repro.fuzz.shrink` — generalized delta debugging of a violating
  input at the full-simulator level, emitting a 1-minimal spec, a
  bit-replayable ``repro.trace/1`` recording and a paper-style
  :class:`~repro.analysis.witness.Counterexample`.

Driven by ``repro fuzz`` on the CLI and benchmarked against uniform
random sampling in ``benchmarks/bench_fuzz.py``.
"""

from repro.fuzz.coverage import coverage_signature, new_features, signature_key
from repro.fuzz.engine import (
    FUZZ_BASE_SEED,
    Finding,
    FuzzConfig,
    FuzzEngine,
    FuzzResult,
    uniform_specs,
)
from repro.fuzz.shrink import ShrinkResult, shrink_spec

__all__ = [
    "FUZZ_BASE_SEED",
    "Finding",
    "FuzzConfig",
    "FuzzEngine",
    "FuzzResult",
    "ShrinkResult",
    "coverage_signature",
    "new_features",
    "shrink_spec",
    "signature_key",
    "uniform_specs",
]
