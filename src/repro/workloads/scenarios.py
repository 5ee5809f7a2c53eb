"""The scenario matrix of the paper's tables.

Tables 1–3 classify systems along two axes: front links lossless or lossy,
and the condition non-historical / historical-conservative /
historical-aggressive.  A :class:`Scenario` bundles one row of that
matrix — a condition factory, a workload factory and a front-link loss
probability — so the table benchmarks can iterate
``for row in ROW_ORDER: for algorithm in ...: run trials``.

Single-variable rows use the paper's own conditions (c1, c2, c3); the
multi-variable rows of Table 3 use cm (Theorem 10) for the non-historical
cases and a two-variable delta condition, aggressive or conservative in
x, for the historical ones.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.components.system import RunResult, SystemConfig, run_system
from repro.core.condition import Condition, ExpressionCondition, c1, c2, c3, cm
from repro.core.expressions import H
from repro.simulation.failures import CrashSchedule
from repro.simulation.network import DelayModel, PerLinkSkewDelay
from repro.simulation.rng import RandomStreams
from repro.workloads.generators import (
    bursty_readings,
    correlated_updates,
    paired_reactors,
    rising_runs,
    threshold_crossers,
    zipfian_workload,
)

__all__ = [
    "Scenario",
    "ROW_ORDER",
    "DIVERSITY_ROWS",
    "SINGLE_VARIABLE_SCENARIOS",
    "MULTI_VARIABLE_SCENARIOS",
    "cm_historical",
    "run_scenario",
    "scenario_trial",
    "fault_horizon",
    "FAULT_HORIZON_SLACK",
]

#: Row order of Tables 1-3.  The diversity rows below (bursty, zipfian,
#: correlated) are deliberately *not* listed here: the paper's tables —
#: and their golden fixtures — iterate only these four rows, while chaos
#: sweeps, quality sweeps and fuzz campaigns take any matrix row.
ROW_ORDER = ("lossless", "non-historical", "conservative", "aggressive")

#: Extra traffic-shape rows (ROADMAP item 3).  "bursty" exists in both
#: matrices; "zipfian" and "correlated" are inherently multi-variable.
DIVERSITY_ROWS = ("bursty", "zipfian", "correlated")

#: Loss probability used for the lossy rows (matches nothing in the paper,
#: which is parameter-free; chosen so CE inputs diverge in most trials).
DEFAULT_LOSS = 0.3

Workload = dict[str, list[tuple[float, float]]]
WorkloadFactory = Callable[[RandomStreams, int], Workload]
ConditionFactory = Callable[[], Condition]


@dataclass(frozen=True)
class Scenario:
    """One row of the table matrix."""

    key: str
    label: str
    multi_variable: bool
    front_loss: float
    condition_factory: ConditionFactory
    workload_factory: WorkloadFactory
    #: Optional front-link delay model.  Multi-variable scenarios use
    #: PerLinkSkewDelay so different CEs observe genuinely different x/y
    #: interleavings (Theorem 10 / Lemma 6); each link keeps its base in
    #: the draw :meth:`~DelayModel.for_link` gives it, so one instance
    #: serves every run.  None = the SystemConfig default.
    front_delay: DelayModel | None = None
    _configs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _condition(self) -> Condition:
        return self.condition_factory()

    def make_condition(self) -> Condition:
        """The row's condition: built once, shared by every trial of the
        row (conditions are immutable, and the row determines it)."""
        return self._condition

    def make_config(
        self, ad_algorithm: str, replication: int, membership=None
    ) -> SystemConfig:
        """The row's crash-free config, built once per (algorithm,
        replication, membership) and shared like the condition."""
        key = (ad_algorithm, replication, membership)
        if key not in self._configs:
            delay = {"front_delay": self.front_delay} if self.front_delay else {}
            self._configs[key] = SystemConfig(
                replication, ad_algorithm, self.front_loss,
                membership=membership, **delay,
            )
        return self._configs[key]

    def make_workload(self, streams: RandomStreams, n_updates: int) -> Workload:
        return self.workload_factory(streams, n_updates)


def cm_historical(conservative: bool) -> ExpressionCondition:
    """A two-variable condition, historical (degree 2) in x.

    "x has risen more than 120 since the last x reading received AND the
    two reactors differ by more than 80 degrees."  The conservative
    variant additionally requires the two x readings to be consecutive —
    the c3-style guard.
    """
    expr = (H.x[0].value - H.x[-1].value > 120.0) & (
        abs(H.x[0].value - H.y[0].value) > 80.0
    )
    if conservative:
        expr = expr & (H.x[0].seqno == H.x[-1].seqno + 1)
        return ExpressionCondition("cm_cons", expr, conservative=True)
    return ExpressionCondition("cm_aggr", expr, conservative=False)


# -- workload factories ------------------------------------------------------

def _single_threshold(streams: RandomStreams, n: int) -> Workload:
    return {"x": threshold_crossers(streams.stream("workload/x"), n)}


def _single_rising(streams: RandomStreams, n: int) -> Workload:
    return {"x": rising_runs(streams.stream("workload/x"), n)}


def _paired(streams: RandomStreams, n: int) -> Workload:
    return {
        "x": paired_reactors(streams.stream("workload/x"), n, phase=0.0),
        "y": paired_reactors(streams.stream("workload/y"), n, phase=40.0),
    }


def _rising_plus_partner(streams: RandomStreams, n: int) -> Workload:
    return {
        "x": rising_runs(streams.stream("workload/x"), n, rise=170.0),
        "y": paired_reactors(streams.stream("workload/y"), n, base=1100.0),
    }


def _single_bursty(streams: RandomStreams, n: int) -> Workload:
    return {"x": bursty_readings(streams.stream("workload/x"), n)}


def _multi_bursty(streams: RandomStreams, n: int) -> Workload:
    return {
        "x": bursty_readings(streams.stream("workload/x"), n),
        "y": bursty_readings(
            streams.stream("workload/y"), n, idle_interval=30.0
        ),
    }


def _zipfian_pair(streams: RandomStreams, n: int) -> Workload:
    return zipfian_workload(streams.stream("workload/zipf"), n, ("x", "y"))


def _correlated_pair(streams: RandomStreams, n: int) -> Workload:
    return correlated_updates(streams.stream("workload/corr"), n, ("x", "y"))


SINGLE_VARIABLE_SCENARIOS: Mapping[str, Scenario] = {
    "lossless": Scenario(
        key="lossless",
        label="Lossless links (any condition)",
        multi_variable=False,
        front_loss=0.0,
        condition_factory=lambda: c2(),
        workload_factory=_single_rising,
    ),
    "non-historical": Scenario(
        key="non-historical",
        label="Lossy, non-historical condition (c1)",
        multi_variable=False,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: c1(),
        workload_factory=_single_threshold,
    ),
    "conservative": Scenario(
        key="conservative",
        label="Lossy, historical conservative (c3)",
        multi_variable=False,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: c3(),
        workload_factory=_single_rising,
    ),
    "aggressive": Scenario(
        key="aggressive",
        label="Lossy, historical aggressive (c2)",
        multi_variable=False,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: c2(),
        workload_factory=_single_rising,
    ),
    "bursty": Scenario(
        key="bursty",
        label="Lossy, bursty on/off traffic (c1)",
        multi_variable=False,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: c1(),
        workload_factory=_single_bursty,
    ),
}


MULTI_VARIABLE_SCENARIOS: Mapping[str, Scenario] = {
    "lossless": Scenario(
        key="lossless",
        label="Lossless links, two variables (cm)",
        multi_variable=True,
        front_loss=0.0,
        condition_factory=lambda: cm(),
        workload_factory=_paired,
        front_delay=PerLinkSkewDelay(),
    ),
    "non-historical": Scenario(
        key="non-historical",
        label="Lossy, non-historical two-variable (cm)",
        multi_variable=True,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: cm(),
        workload_factory=_paired,
        front_delay=PerLinkSkewDelay(),
    ),
    "conservative": Scenario(
        key="conservative",
        label="Lossy, historical conservative two-variable",
        multi_variable=True,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: cm_historical(conservative=True),
        workload_factory=_rising_plus_partner,
        front_delay=PerLinkSkewDelay(),
    ),
    "aggressive": Scenario(
        key="aggressive",
        label="Lossy, historical aggressive two-variable",
        multi_variable=True,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: cm_historical(conservative=False),
        workload_factory=_rising_plus_partner,
        front_delay=PerLinkSkewDelay(),
    ),
    "bursty": Scenario(
        key="bursty",
        label="Lossy, bursty two-variable traffic (cm)",
        multi_variable=True,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: cm(),
        workload_factory=_multi_bursty,
        front_delay=PerLinkSkewDelay(),
    ),
    "zipfian": Scenario(
        key="zipfian",
        label="Lossy, zipfian variable popularity (cm)",
        multi_variable=True,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: cm(),
        workload_factory=_zipfian_pair,
        front_delay=PerLinkSkewDelay(),
    ),
    "correlated": Scenario(
        key="correlated",
        label="Lossy, correlated co-arriving updates (cm)",
        multi_variable=True,
        front_loss=DEFAULT_LOSS,
        condition_factory=lambda: cm(),
        workload_factory=_correlated_pair,
        front_delay=PerLinkSkewDelay(),
    ),
}


#: Fault windows are drawn over the workload span plus this slack, so the
#: delivery tail after the last reading still sees faults.
FAULT_HORIZON_SLACK = 80.0


def fault_horizon(n_updates: int) -> float:
    """The time span a scenario's fault plan is drawn over."""
    return n_updates * 10.0 + FAULT_HORIZON_SLACK


def scenario_trial(
    scenario: Scenario,
    ad_algorithm: str,
    seed: int,
    n_updates: int = 30,
    replication: int = 2,
    crash_schedules: Mapping[int, CrashSchedule] | None = None,
    faults: object | None = None,
    membership: object | None = None,
) -> tuple[Condition, Workload, SystemConfig]:
    """The ``(condition, workload, config)`` of one randomized trial of
    a scenario under an AD algorithm: what :func:`run_scenario` runs.

    ``faults`` (a :class:`~repro.faults.plan.FaultProfile`) materializes a
    concrete fault plan from the run's own named RNG streams and folds it
    into the config.  Fault draws come from dedicated ``faults/...``
    streams, so a clean profile (or ``None``) leaves the run bit-identical
    to the faults-free path.

    ``membership`` (a :class:`~repro.membership.MembershipConfig`) turns
    crashes into a detect → rejoin → catch-up lifecycle; the plan is
    derived analytically from the materialized crash schedules, so it
    consumes no randomness and composes with ``faults``.
    """
    streams = RandomStreams(seed)
    condition = scenario.make_condition()
    workload = scenario.make_workload(streams, n_updates)
    config = scenario.make_config(ad_algorithm, replication, membership)
    if crash_schedules:
        config = replace(config, crash_schedules=dict(crash_schedules))
    if faults is not None:
        plan = faults.materialize(
            streams,
            horizon=fault_horizon(n_updates),
            replication=replication,
            variables=sorted(workload),
        )
        config = plan.apply_to(config)
    return condition, workload, config


def run_scenario(
    scenario: Scenario,
    ad_algorithm: str,
    seed: int,
    n_updates: int = 30,
    replication: int = 2,
    crash_schedules: Mapping[int, CrashSchedule] | None = None,
    tracer: object | None = None,
    faults: object | None = None,
    membership: object | None = None,
) -> RunResult:
    """Run one randomized trial of a scenario under an AD algorithm (see
    :func:`scenario_trial` for the knobs).

    ``tracer`` (see :mod:`repro.observability`) observes the run; tracing
    never perturbs the simulation, so traced and untraced runs of the same
    ``(scenario, seed)`` produce identical results.  A tracer that needs
    the ordered event stream is served by the object kernel.
    """
    return run_system(
        *scenario_trial(
            scenario, ad_algorithm, seed, n_updates, replication,
            crash_schedules, faults, membership,
        ),
        seed=seed, tracer=tracer,
    )
