"""Per-run property evaluation and aggregation across trials.

:func:`evaluate_run` decides all three properties for one completed run of
a replicated system — given the condition, the per-CE received traces
(U1, U2, …) and the displayed alert sequence A as identity keys —
picking the right checker for the condition's shape.
:class:`PropertyTally` aggregates the verdicts over many randomized
trials into the ✓/✗ cells of the paper's tables ("✓" = no violation
ever witnessed, "✗" = at least one violation, with the first witness
retained for replay).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.condition import Condition
from repro.core.reference import combine_received, count_interleavings
from repro.core.update import Update
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
from repro.props.orderedness import OrderednessResult, check_orderedness

__all__ = [
    "PropertyReport",
    "PropertyTally",
    "evaluate_run",
]

#: Above this many interleavings, the exhaustive multi-variable
#: completeness/consistency oracles are skipped (verdict None).
DEFAULT_INTERLEAVING_LIMIT = 200_000


@dataclass(frozen=True)
class PropertyReport:
    """Verdicts for one run.

    ``None`` = checker skipped (instance too big); a completeness result
    with ``undecided=True`` (state budget exhausted mid-search) is
    likewise reported as ``None`` in :attr:`summary` and skipped by
    :class:`PropertyTally` — an exhausted search is not a violation.
    """

    ordered: OrderednessResult
    complete: CompletenessResult | None
    consistent: ConsistencyResult | None
    #: Optional per-stage observability counters from a CountersTracer
    #: (``"stage/kind/node"`` → count), attached when the trial ran with
    #: ``TrialSpec.collect_counters``.  Excluded from equality so traced
    #: and untraced reports of the same run still compare equal.
    counters: dict[str, int] | None = field(default=None, compare=False)
    #: Optional churn context from a membership-enabled run (the
    #: JSON-safe digest of :func:`repro.membership.churn_summary`),
    #: letting aggregators distinguish violations that happened while
    #: the replica set was below quorum from steady-state ones.
    #: Excluded from equality like ``counters``.
    churn: dict | None = field(default=None, compare=False)
    #: Optional event-keyed alert quality (the JSON-safe digest of
    #: :func:`repro.quality.alert_quality`), attached when the trial ran
    #: with ``TrialSpec.collect_quality`` — what the sweeps fold into
    #: missed-alert fractions and precision/recall/latency cells.
    #: Excluded from equality like ``counters``.
    quality: dict | None = field(default=None, compare=False)

    @property
    def completeness_decided(self) -> bool:
        """True iff the completeness checker ran to a definite verdict."""
        return self.complete is not None and not self.complete.undecided

    @property
    def summary(self) -> dict[str, bool | None]:
        return {
            "ordered": bool(self.ordered),
            "complete": (
                bool(self.complete) if self.completeness_decided else None
            ),
            "consistent": None if self.consistent is None else bool(self.consistent),
        }


def evaluate_run(
    condition: Condition,
    traces: Sequence[Sequence[Update]],
    displayed: Sequence[tuple],
    interleaving_limit: int = DEFAULT_INTERLEAVING_LIMIT,
) -> PropertyReport:
    """Decide orderedness, completeness and consistency for one run.

    ``traces`` are the update sequences actually received by each CE;
    ``displayed`` is the AD's final output A, as the identity key of each
    alert (:meth:`Alert.identity() <repro.core.alert.Alert.identity>`):
    no property reads more than its seqnos.
    """
    variables = condition.variables
    ordered = check_orderedness(displayed, variables)
    per_variable = combine_received(traces, variables)

    if len(variables) == 1:
        var = variables[0]
        complete: CompletenessResult | None = check_completeness_single(
            displayed, condition, per_variable[var]
        )
        consistent: ConsistencyResult | None = check_consistency_single(
            displayed, var
        )
        return PropertyReport(ordered, complete, consistent)

    # Multi-variable: exact completeness only when tractable.  The skip
    # policy is still phrased in interleaving counts (the historical cost
    # model, and what the golden fixtures pin); under it the grid walk
    # explores at most one state per grid point, far fewer than
    # ``interleaving_limit``, so undecided results cannot occur here —
    # but they are propagated faithfully if a caller passes a limit
    # below the grid size.
    n_interleavings = count_interleavings(per_variable)
    if n_interleavings <= interleaving_limit:
        complete = check_completeness_multi(
            displayed, condition, per_variable, limit=interleaving_limit
        )
    else:
        complete = None

    # The member-based constraint checker is exact for historical and
    # non-historical multi-variable conditions alike (cross-validated
    # against the test-suite's exhaustive oracle).
    consistent = check_consistency_multi(displayed, variables)
    return PropertyReport(ordered, complete, consistent)


@dataclass
class PropertyTally:
    """Aggregate verdicts over many runs of one (scenario, algorithm) cell."""

    runs: int = 0
    ordered_violations: int = 0
    completeness_violations: int = 0
    consistency_violations: int = 0
    completeness_checked: int = 0
    consistency_checked: int = 0
    #: Runs whose completeness search exhausted its budget (undecided).
    completeness_undecided: int = 0
    first_unordered_seed: int | None = None
    first_incomplete_seed: int | None = None
    first_inconsistent_seed: int | None = None
    #: Retained first-violation details for the experiment log.
    witnesses: dict[str, str] = field(default_factory=dict)
    #: Summed observability counters (``"stage/kind/node"`` → count) over
    #: every added report that carried them; empty when tracing was off.
    counters: dict[str, int] = field(default_factory=dict)
    #: Churn context (membership-enabled runs only): how many added runs
    #: spent any time below quorum, and how the violations split between
    #: degraded intervals and steady state.  A violation in a run that
    #: was ever below quorum counts as degraded — run-level granularity:
    #: the checkers decide over whole sequences, so a violation cannot be
    #: pinned to an instant.
    degraded_runs: int = 0
    violations_degraded: int = 0
    violations_steady: int = 0

    def add(self, report: PropertyReport, seed: int | None = None) -> None:
        self.runs += 1
        if report.counters:
            for key, count in report.counters.items():
                self.counters[key] = self.counters.get(key, 0) + count
        if report.churn is not None:
            degraded = bool(report.churn.get("below_quorum"))
            if degraded:
                self.degraded_runs += 1
            violated = sum(
                1 for verdict in report.summary.values() if verdict is False
            )
            if degraded:
                self.violations_degraded += violated
            else:
                self.violations_steady += violated
        if not report.ordered:
            self.ordered_violations += 1
            if self.first_unordered_seed is None:
                self.first_unordered_seed = seed
                self.witnesses.setdefault(
                    "ordered",
                    f"inversion in {report.ordered.violating_variable} at "
                    f"alert index {report.ordered.violation_index}",
                )
        if report.complete is not None and report.complete.undecided:
            self.completeness_undecided += 1
        elif report.complete is not None:
            self.completeness_checked += 1
            if not report.complete:
                self.completeness_violations += 1
                if self.first_incomplete_seed is None:
                    self.first_incomplete_seed = seed
                    self.witnesses.setdefault(
                        "complete",
                        f"missing={len(report.complete.missing)} "
                        f"extraneous={len(report.complete.extraneous)}",
                    )
        if report.consistent is not None:
            self.consistency_checked += 1
            if not report.consistent:
                self.consistency_violations += 1
                if self.first_inconsistent_seed is None:
                    self.first_inconsistent_seed = seed
                    self.witnesses.setdefault(
                        "consistent", report.consistent.conflict or "conflict"
                    )

    @property
    def always_ordered(self) -> bool:
        return self.ordered_violations == 0

    @property
    def always_complete(self) -> bool | None:
        if self.completeness_checked == 0:
            return None
        return self.completeness_violations == 0

    @property
    def always_consistent(self) -> bool | None:
        if self.consistency_checked == 0:
            return None
        return self.consistency_violations == 0

    def cell(self) -> dict[str, bool | None]:
        """The (ordered, complete, consistent) table cell for this tally."""
        return {
            "ordered": self.always_ordered,
            "complete": self.always_complete,
            "consistent": self.always_consistent,
        }

    def stage_counters(self) -> dict[str, dict[str, int]]:
        """Aggregated counters as ``{stage: {kind: count}}`` over nodes."""
        summary: dict[str, dict[str, int]] = {}
        for key, count in sorted(self.counters.items()):
            stage, kind, _node = key.split("/", 2)
            summary.setdefault(stage, {})
            summary[stage][kind] = summary[stage].get(kind, 0) + count
        return summary
