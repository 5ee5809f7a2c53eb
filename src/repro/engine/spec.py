"""Picklable trial descriptors.

Scenarios hold lambdas (condition/workload factories), so they cannot
cross a process boundary.  A :class:`TrialSpec` instead names the
scenario by ``(matrix, row)`` and re-resolves it from the module matrices
inside whichever process executes the trial, carrying only plain values —
plus the two overrides the parameter sweeps need (``front_loss`` and
``replication``), so sweep points fan out through the same engine as the
table grids.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from importlib import import_module
from typing import TYPE_CHECKING

from repro.props.report import PropertyReport
from repro.workloads import scenarios
from repro.workloads.scenarios import (
    MULTI_VARIABLE_SCENARIOS,
    SINGLE_VARIABLE_SCENARIOS,
    Scenario,
)

if TYPE_CHECKING:
    from repro.components.system import RunResult
    from repro.faults.plan import FaultProfile
    from repro.membership.config import MembershipConfig

__all__ = ["TrialSpec", "SCENARIO_MATRICES", "check_spec_fields"]

#: The resolvable scenario matrices, by TrialSpec.matrix name.
SCENARIO_MATRICES = {
    "single": SINGLE_VARIABLE_SCENARIOS,
    "multi": MULTI_VARIABLE_SCENARIOS,
}

#: The knob-set fields a header carries as plain dicts, and where their
#: classes live (imported on first use).
_KNOB_SETS = (
    ("faults", "repro.faults.plan", "FaultProfile"),
    ("membership", "repro.membership.config", "MembershipConfig"),
)


@dataclass(frozen=True)
class TrialSpec:
    """One randomized trial: scenario row × algorithm × seed × knobs."""

    matrix: str
    row: str
    algorithm: str
    seed: int
    n_updates: int
    replication: int = 2
    #: Sweep override: replaces the scenario's own front-link loss rate.
    front_loss: float | None = None
    #: Attach a CountersTracer to the run and carry its per-stage counters
    #: back on the report (``PropertyReport.counters``), so trial batches
    #: can aggregate observability counters across processes.
    collect_counters: bool = False
    #: Optional fault-injection profile (see :mod:`repro.faults`): the
    #: run materializes a concrete FaultPlan from its own seed.  A plain
    #: dict (e.g. reconstructed from a trace header) is converted to a
    #: FaultProfile, so specs survive the JSONL round trip.
    faults: "FaultProfile | None" = None
    #: Also compute event-keyed alert quality (missed/precision/recall/
    #: latency against the single-replica ground truth) and attach it to
    #: the report (``PropertyReport.quality``) — what the chaos, churn and
    #: quality sweeps fold.
    collect_quality: bool = False
    #: Like ``collect_counters`` but with a ReasonCountersTracer, whose
    #: keys splice event ``reason`` payloads into the kind segment
    #: (``link/drop:burst/...``, ``ad/filter:<why>/...``) — the input of
    #: the fuzzer's behaviour-coverage signature (:mod:`repro.fuzz`).
    collect_coverage: bool = False
    #: Trial executor: "array" (struct-of-arrays fast path) or "object"
    #: (the event-object oracle).  Differentially tested to be
    #: result- and trace-identical, so this knob only affects speed —
    #: and old serialized specs without the field deserialize to "array".
    kernel: str = "array"
    #: Optional dynamic-membership config (see :mod:`repro.membership`):
    #: crashes become a detect → rejoin → catch-up lifecycle, and the
    #: report carries the run's churn digest (``PropertyReport.churn``).
    #: Dicts (from trace headers) are coerced like ``faults``.
    membership: "MembershipConfig | None" = None

    def __post_init__(self) -> None:
        for name, module, cls in _KNOB_SETS:
            value = getattr(self, name)
            if isinstance(value, dict):
                cls = getattr(import_module(module), cls)
                object.__setattr__(self, name, cls(**value))

    def resolve_scenario(self) -> Scenario:
        scenario = SCENARIO_MATRICES[self.matrix][self.row]
        if self.front_loss is not None:
            scenario = replace(scenario, front_loss=self.front_loss)
        return scenario

    def bare(self) -> "TrialSpec":
        """This spec with the collection flags off: the canonical form a
        witness is shrunk, recorded and replayed in."""
        return replace(self, collect_counters=False, collect_coverage=False)

    def run(self, tracer: object | None = None) -> "RunResult":
        """Simulate the trial: the one place a spec becomes a
        ``scenario_trial`` and a ``run_system`` call, so no knob can be
        dropped on the way.  (Looked up on the module so patches of
        ``scenarios`` bind.)"""
        return scenarios.run_system(
            *scenarios.scenario_trial(
                self.resolve_scenario(),
                self.algorithm,
                self.seed,
                n_updates=self.n_updates,
                replication=self.replication,
                faults=self.faults,
                membership=self.membership,
            ),
            seed=self.seed,
            tracer=tracer,
            kernel=self.kernel,
        )

    def execute(self) -> PropertyReport:
        """Run the trial and decide its properties (in any process)."""
        tracer = None
        if self.collect_coverage:
            from repro.observability.tracer import ReasonCountersTracer

            tracer = ReasonCountersTracer()
        elif self.collect_counters:
            from repro.observability.tracer import CountersTracer

            tracer = CountersTracer()
        run = self.run(tracer)
        report = run.evaluate_properties()
        extras = {}
        if tracer is not None:
            extras["counters"] = tracer.as_dict()
        if run.membership is not None:
            from repro.membership.verdicts import churn_summary

            extras["churn"] = churn_summary(run)
        if self.collect_quality:
            from repro.quality.metrics import alert_quality

            extras["quality"] = alert_quality(run).as_dict()
        # Every digest rides on one frozen copy of the report.
        return replace(report, **extras) if extras else report


def check_spec_fields(spec: object, error: type[ValueError], where: str) -> None:
    """Raise ``error`` naming the field at fault unless ``spec`` — the
    serialized :class:`TrialSpec` of a trace or feed header — is an object
    with every field the spec requires and no other."""
    if not isinstance(spec, dict):
        raise error(f"{where} is not an object: {spec!r}")
    declared = {field.name: field for field in fields(TrialSpec)}
    for name in spec:
        if name not in declared:
            raise error(f"{where} has an unknown field {name!r}")
    for name, field in declared.items():
        if field.default is MISSING and name not in spec:
            raise error(f"{where} has no {name!r} field")
