"""The coverage-guided reseeding fuzz loop.

:class:`FuzzEngine` keeps a corpus of :class:`~repro.engine.spec.TrialSpec`
inputs for one scenario cell.  A child is a corpus entry, picked with a
bias toward recent additions, run again under a fresh seed; batches go
through the existing :class:`~repro.engine.core.TrialEngine` (inline
unless given a pool), and the loop

* **retains** an input in the corpus when its behaviour signature
  (:func:`~repro.fuzz.coverage.coverage_signature`) contains any feature
  the campaign has never seen — new drop reason, new AD rejection
  reason, new count bucket, new verdict vector;
* **reports** an input as a finding when it violates the target
  property, deduplicating findings by whole signature, so "how many
  distinct violating signatures" is the campaign's figure of merit
  (what ``benchmarks/bench_fuzz.py`` compares against uniform random
  sampling).

Reseeding keeps everything but the seed, so what a campaign can reach
is fixed by its initial corpus (:meth:`FuzzConfig.initial_specs`).  At
equal budget it finds more violating signatures than any knob-mutation
catalogue measured (EXPERIMENTS.md, "Fuzzing").

Everything is deterministic in ``FuzzConfig.fuzz_seed``: seed draws come
from one dedicated ``random.Random``, batches preserve submission order
through the engine, and duplicate specs are skipped before execution —
so a campaign's findings replay exactly, and each finding's spec can be
handed to :func:`repro.fuzz.shrink.shrink_spec` and
:func:`repro.observability.replay.record_trial` for a bit-replayable
minimized witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random

from repro.analysis.witness import find_violation, violates
from repro.engine.core import INLINE_ENGINE, TrialEngine
from repro.engine.spec import TrialSpec
from repro.faults.plan import DEFAULT_CHAOS_PROFILE
from repro.fuzz.coverage import coverage_signature, signature_key
from repro.props.report import PropertyReport

__all__ = ["FuzzConfig", "Finding", "FuzzResult", "FuzzEngine", "uniform_specs"]

#: Default base seed for initial corpus entries and uniform baselines
#: (distinct from the table grids' and chaos sweeps').
FUZZ_BASE_SEED = 20010901

_TARGETS = ("ordered", "complete", "consistent")

#: Clean entries in the initial corpus.
_INITIAL_CLEAN = 8
#: Chaos intensities of the initial corpus's fault-profile entries.
_INITIAL_CHAOS = (0.5, 2.0)


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign: a scenario cell, a target, and a budget."""

    matrix: str = "single"
    row: str = "aggressive"
    algorithm: str = "AD-2"
    #: Property to hunt ("ordered" | "complete" | "consistent"), or None
    #: to count any violation as a finding.
    target: str | None = "consistent"
    #: Total simulator runs the campaign may spend (initial corpus
    #: included).
    budget: int = 1000
    #: Seed of the fuzzer's own RNG stream (selection and seed draws).
    fuzz_seed: int = 0
    #: Specs submitted to the trial engine per round.
    batch_size: int = 32
    #: Reading count of every campaign spec.
    n_updates: int = 20
    replication: int = 2

    def __post_init__(self) -> None:
        if self.target is not None and self.target not in _TARGETS:
            raise ValueError(
                f"unknown target {self.target!r}; expected one of {_TARGETS}"
            )
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_updates < 1:
            raise ValueError(f"n_updates must be >= 1, got {self.n_updates}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")

    def clean_spec(self, seed: int) -> TrialSpec:
        """The campaign's scenario cell at ``seed``: default knobs, no
        faults, coverage-observable."""
        return TrialSpec(
            self.matrix,
            self.row,
            self.algorithm,
            seed,
            self.n_updates,
            replication=self.replication,
            collect_coverage=True,
        )

    def initial_specs(self) -> list[TrialSpec]:
        """The seed corpus: clean runs plus chaos-profile runs.

        Seeds are spread deterministically from the fuzz seed.  A child
        keeps its parent's fault profile, so these entries fix what the
        campaign can reach: the heavy chaos entry is the one whose runs
        reach a front-link datagram dropped as late
        (``link/drop:reorder``).
        """
        rng = Random(f"fuzz/initial/{self.fuzz_seed}")
        specs = [
            self.clean_spec(rng.randrange(1 << 31))
            for _ in range(_INITIAL_CLEAN)
        ]
        specs += [
            replace(
                specs[0],
                seed=rng.randrange(1 << 31),
                faults=DEFAULT_CHAOS_PROFILE.scaled(intensity),
            )
            for intensity in _INITIAL_CHAOS
        ]
        return specs[: self.budget]


@dataclass(frozen=True)
class Finding:
    """One distinct violating behaviour the campaign discovered."""

    spec: TrialSpec
    signature: frozenset[str]
    summary: dict[str, bool | None]
    #: Which property the finding violates (the target, or the most
    #: severe violated one on target-free campaigns).
    violation: str

    @property
    def witness_spec(self) -> TrialSpec:
        """The spec stripped of collection flags — the canonical witness
        input to shrink, record and replay."""
        return self.spec.bare()


@dataclass
class FuzzResult:
    """Aggregate outcome of one campaign."""

    config: FuzzConfig
    executed: int = 0
    skipped_duplicates: int = 0
    corpus_size: int = 0
    features: int = 0
    #: Count of distinct whole-run signatures observed.
    distinct_signatures: int = 0
    #: Distinct *violating* signatures, in discovery order.
    findings: list[Finding] = field(default_factory=list)

    @property
    def distinct_violating_signatures(self) -> int:
        return len(self.findings)


def _violation_of(report: PropertyReport, target: str | None) -> str | None:
    if target is not None:
        return target if violates(report, target) else None
    return find_violation(report)


class FuzzEngine:
    """Runs one campaign, each batch on ``engine`` (inline by default)."""

    def __init__(
        self, config: FuzzConfig, engine: TrialEngine = INLINE_ENGINE
    ) -> None:
        self.config = config
        self.engine = engine

    def run(self) -> FuzzResult:
        config = self.config
        rng = Random(f"fuzz/reseed/{config.fuzz_seed}")
        result = FuzzResult(config=config)
        corpus: list[TrialSpec] = []
        seen_features: set[str] = set()
        seen_signatures: set[tuple[str, ...]] = set()
        violating: set[tuple[str, ...]] = set()
        tried: set[TrialSpec] = set()

        def ingest(spec: TrialSpec, report: PropertyReport) -> None:
            signature = coverage_signature(report.counters, report.summary)
            key = signature_key(signature)
            seen_signatures.add(key)
            if signature - seen_features:
                seen_features.update(signature)
                corpus.append(spec)
            violation = _violation_of(report, config.target)
            if violation is not None and key not in violating:
                violating.add(key)
                result.findings.append(
                    Finding(
                        spec=spec,
                        signature=signature,
                        summary=dict(report.summary),
                        violation=violation,
                    )
                )

        batch = config.initial_specs()
        tried.update(batch)
        while batch:
            for spec, report in zip(batch, self.engine.run(batch)):
                ingest(spec, report)
            result.executed += len(batch)
            remaining = config.budget - result.executed
            if remaining <= 0:
                break
            batch = []
            while len(batch) < min(config.batch_size, remaining):
                parent = self._pick_parent(corpus, rng)
                child = replace(parent, seed=rng.randrange(1 << 31))
                if child in tried:
                    result.skipped_duplicates += 1
                    continue
                tried.add(child)
                batch.append(child)

        result.corpus_size = len(corpus)
        result.features = len(seen_features)
        result.distinct_signatures = len(seen_signatures)
        return result

    @staticmethod
    def _pick_parent(corpus: list[TrialSpec], rng: Random) -> TrialSpec:
        """Corpus entry to reseed, biased toward recent additions.

        Recent entries embody the newest behaviour; squaring the uniform
        draw skews selection toward the tail without starving the head.
        """
        index = len(corpus) - 1 - int(rng.random() ** 2 * len(corpus))
        return corpus[min(max(index, 0), len(corpus) - 1)]


def uniform_specs(config: FuzzConfig, base_seed: int = FUZZ_BASE_SEED) -> list[TrialSpec]:
    """The uniform-sampling baseline at the same budget: sequential seeds
    on the campaign's scenario cell with the default knobs and no faults —
    exactly how the table grids sample, made coverage-observable."""
    return [config.clean_spec(base_seed + trial) for trial in range(config.budget)]
