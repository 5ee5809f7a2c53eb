"""Coverage-guided fuzzing vs. uniform sampling — violations per budget.

The figure of merit is **distinct violating coverage signatures** (see
:mod:`repro.fuzz.coverage`): how many genuinely different ways of
violating the target property a search finds for a fixed number of
simulator runs.  Raw violation *counts* would reward finding the same
boring violation two thousand times; distinct signatures reward breadth.
Breadth is also reported directly: the union of ``hit:`` features (which
drop, fault and rejection points fired) over each search's findings, and
the fuzzer's union must contain uniform sampling's.

The cell under test is Table 2's consistency ✗-cell — the aggressive
single-variable row under AD-2, the weakest algorithm whose grid leaves
consistency unguaranteed.  (AD-3 and up *guarantee* consistency, so a
consistency hunt there must come back empty; the fuzzer's differential
tests pin that separately.)

Both searches spend the same budget:

* **fuzz**: :class:`repro.fuzz.engine.FuzzEngine` with its default
  corpus and reseeding settings;
* **uniform**: :func:`repro.fuzz.engine.uniform_specs` — sequential
  seeds, default knobs, no faults, exactly how the table grids sample.

The benchmark then shrinks the first finding to a 1-minimal witness and
replays its recorded trace, so the published ratio is backed by at least
one bit-replayable counterexample.  Both searches are seeded, so the
counts in ``benchmarks/results/fuzz.txt`` regenerate exactly.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analysis.witness import violates
from repro.fuzz import (
    FuzzConfig,
    FuzzEngine,
    coverage_signature,
    shrink_spec,
    signature_key,
    uniform_specs,
)
from repro.observability import replay_trace

ROW = "aggressive"
ALGORITHM = "AD-2"
TARGET = "consistent"
BUDGET = 2000
FUZZ_SEED = 0
MIN_RATIO = 1.5


def hit_union(signatures) -> set[str]:
    """The ``hit:`` features over a set of signatures."""
    return {f for signature in signatures for f in signature if f.startswith("hit:")}


def uniform_baseline(config: FuzzConfig) -> dict:
    """Distinct (violating) signatures from uniform sampling at the same
    budget, scored with the exact signature the fuzzer uses."""
    signatures: set[tuple[str, ...]] = set()
    violating: set[tuple[str, ...]] = set()
    violations = 0
    for spec in uniform_specs(config):
        report = spec.execute()
        key = signature_key(
            coverage_signature(report.counters, report.summary)
        )
        signatures.add(key)
        if violates(report, config.target):
            violations += 1
            violating.add(key)
    return {
        "distinct_signatures": len(signatures),
        "distinct_violating_signatures": len(violating),
        "violations": violations,
        "hits": hit_union(violating),
    }


def run_comparison() -> dict:
    config = FuzzConfig(
        matrix="single",
        row=ROW,
        algorithm=ALGORITHM,
        target=TARGET,
        budget=BUDGET,
        fuzz_seed=FUZZ_SEED,
    )
    fuzz = FuzzEngine(config).run()
    uniform = uniform_baseline(config)

    fuzz_violating = fuzz.distinct_violating_signatures
    uniform_violating = uniform["distinct_violating_signatures"]
    return {
        "cell": f"single/{ROW} {ALGORITHM} target={TARGET}",
        "budget": BUDGET,
        "fuzz_seed": FUZZ_SEED,
        "fuzz": {
            "distinct_violating_signatures": fuzz_violating,
            "distinct_signatures": fuzz.distinct_signatures,
            "corpus_size": fuzz.corpus_size,
            "features": fuzz.features,
            "hits": hit_union(f.signature for f in fuzz.findings),
        },
        "uniform": uniform,
        # Uniform finding zero would make the ratio infinite; clamp the
        # divisor so the comparison stays honest when that happens.
        "ratio": round(fuzz_violating / max(1, uniform_violating), 2),
        "findings": fuzz.findings,
    }


def minimize_first_finding(comparison: dict) -> str:
    """Shrink the first finding and verify its trace replays bit-identically.

    Raises if the shrunk witness fails replay — a published ratio with a
    non-reproducible witness behind it would be worthless.
    """
    findings = comparison["findings"]
    if not findings:
        raise AssertionError(
            f"no {TARGET} violation found on {comparison['cell']} at "
            f"budget {comparison['budget']} — the ✗-cell disappeared"
        )
    finding = findings[0]
    shrunk = shrink_spec(finding.witness_spec, finding.violation)
    replay = replay_trace(shrunk.trace)
    if not replay.identical:
        raise AssertionError(
            f"shrunk witness failed replay: {replay.describe()}"
        )
    spec = shrunk.spec
    return (
        f"1-minimal witness: seed={spec.seed} n_updates={spec.n_updates} "
        f"replication={spec.replication} "
        f"({shrunk.attempts} shrink runs, {shrunk.passes} passes), "
        f"trace replays bit-identically ({len(shrunk.trace.events)} events)"
    )


def format_result(comparison: dict, witness_line: str) -> str:
    fuzz, uniform = comparison["fuzz"], comparison["uniform"]
    return (
        f"{comparison['cell']} @ budget {comparison['budget']} "
        f"(fuzz seed {comparison['fuzz_seed']}): "
        f"fuzz {fuzz['distinct_violating_signatures']} distinct violating "
        f"signatures ({fuzz['distinct_signatures']} total, corpus "
        f"{fuzz['corpus_size']}, {fuzz['features']} features) vs uniform "
        f"{uniform['distinct_violating_signatures']} "
        f"({uniform['violations']} raw violations, "
        f"{uniform['distinct_signatures']} total signatures) — "
        f"{comparison['ratio']}x. hit: features over findings: fuzz "
        f"{len(fuzz['hits'])}, uniform {len(uniform['hits'])}. "
        + witness_line
    )


def test_fuzz_vs_uniform(benchmark):
    comparison = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    witness_line = minimize_first_finding(comparison)
    save_result("fuzz", format_result(comparison, witness_line))
    assert comparison["ratio"] >= MIN_RATIO
    assert comparison["fuzz"]["hits"] >= comparison["uniform"]["hits"]
