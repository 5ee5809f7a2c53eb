"""Differential testing: array kernel vs. the event-object oracle.

The struct-of-arrays executor (:mod:`repro.simulation.arraykernel`) is
only allowed to exist because it is *indistinguishable* from the object
kernel: same property verdicts and the same observability counters —
reason classes included — for every ``TrialSpec × FaultProfile ×
MembershipConfig``.  The array kernel derives its counters from the
tallies and lengths its phases already have, not from an event stream,
so their equality is an independent check of both sides.  Hypothesis
drives random specs — scenario row, algorithm, seed, reading count,
replication, chaos intensity, membership lifecycle — through both
kernels and asserts exactly that, and the run results beneath the
reports column for column.  Any divergence here voids every benchmark
number.  (Ordered ``repro.trace/1`` streams come from the
object kernel alone; the dispatch that guarantees it is unit-tested in
``tests/unit/test_arraykernel.py``.)
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.evaluator
from repro.components.system import MonitoringSystem
from repro.core.alert import Alert
from repro.core.evaluator import ConditionEvaluator
from repro.displayers.base import ADAlgorithm
from repro.engine.spec import TrialSpec
from repro.faults import DEFAULT_CHAOS_PROFILE
from repro.membership import MembershipConfig
from repro.quality.metrics import _display_times
from repro.quality.sweep import quality_specs
from repro.workloads.scenarios import ROW_ORDER, scenario_trial
from tests.property.test_prop_membership import memberships

rows = st.sampled_from(list(ROW_ORDER))
seeds = st.integers(0, 2**31)
algorithms_single = st.sampled_from(["pass", "AD-1", "AD-2", "AD-3", "AD-4"])
algorithms_multi = st.sampled_from(["pass", "AD-1", "AD-5", "AD-6"])
#: (matrix, algorithm) pairs, the stateful adaptive displayer included.
matrix_algorithms = st.sampled_from(
    [("single", a) for a in ("pass", "AD-1", "AD-2", "AD-3", "AD-4", "adaptive")]
    + [("multi", a) for a in ("pass", "AD-1", "AD-5", "AD-6", "adaptive")]
)
replications = st.integers(1, 3)
intensities = st.floats(0.25, 3.0, allow_nan=False, allow_infinity=False)


def _both_kernels(spec: TrialSpec) -> tuple[TrialSpec, TrialSpec]:
    return replace(spec, kernel="object"), replace(spec, kernel="array")


def _assert_reports_identical(spec: TrialSpec) -> None:
    object_spec, array_spec = _both_kernels(spec)
    object_report = object_spec.execute()
    array_report = array_spec.execute()
    assert object_report == array_report
    assert object_report.summary == array_report.summary
    # counters/quality are compare=False on PropertyReport, so the
    # dataclass equality above does not cover them.
    assert object_report.counters == array_report.counters
    assert object_report.quality == array_report.quality


@settings(max_examples=20, deadline=None)
@given(rows, algorithms_single, seeds, st.integers(4, 14), replications)
def test_single_variable_reports_identical(row, algorithm, seed, n, replication):
    _assert_reports_identical(
        TrialSpec(
            "single", row, algorithm, seed, n,
            replication=replication, collect_counters=True,
        )
    )


@settings(max_examples=10, deadline=None)
@given(rows, algorithms_multi, seeds, st.integers(4, 8), replications)
def test_multi_variable_reports_identical(row, algorithm, seed, n, replication):
    _assert_reports_identical(
        TrialSpec(
            "multi", row, algorithm, seed, n,
            replication=replication, collect_counters=True,
        )
    )


@settings(max_examples=15, deadline=None)
@given(rows, algorithms_single, seeds, st.integers(4, 12), intensities)
def test_fault_injected_reports_identical(row, algorithm, seed, n, chaos):
    """The full fault surface — crashes, outages, burst loss, duplication,
    delay spikes — must be executed identically by both kernels."""
    _assert_reports_identical(
        TrialSpec(
            "single", row, algorithm, seed, n,
            faults=DEFAULT_CHAOS_PROFILE.scaled(chaos),
            collect_counters=True, collect_quality=True,
        )
    )


@settings(max_examples=8, deadline=None)
@given(rows, algorithms_multi, seeds, st.integers(4, 8), intensities)
def test_multi_variable_fault_reports_identical(row, algorithm, seed, n, chaos):
    _assert_reports_identical(
        TrialSpec(
            "multi", row, algorithm, seed, n,
            faults=DEFAULT_CHAOS_PROFILE.scaled(chaos),
            collect_counters=True, collect_quality=True,
        )
    )


@settings(max_examples=40, deadline=None)
@given(
    matrix_algorithms, rows, seeds, st.integers(4, 12), replications,
    intensities, memberships,
)
def test_reason_keyed_counters_identical(
    matrix_algorithm, row, seed, n, replication, chaos, membership
):
    """Coverage counters — drop/hold/filter keys split by reason class —
    under the whole fault surface and the membership lifecycle, on every
    algorithm including the stateful ``adaptive`` one: the order-free
    derivation must land on the object kernel's dict, key for key, with
    no zero-valued extras."""
    matrix, algorithm = matrix_algorithm
    _assert_reports_identical(
        TrialSpec(
            matrix, row, algorithm, seed, n,
            replication=replication,
            faults=DEFAULT_CHAOS_PROFILE.scaled(chaos),
            membership=membership,
            collect_coverage=True, collect_quality=True,
        )
    )


#: The key columns of a RunResult, and the alert views built from them.
_KEY_COLUMNS = ("ce_keys", "arrival_ces", "ad_arrival_times", "displayed_arrivals")
_VIEWS = ("ce_alerts", "ad_arrivals", "displayed", "filtered")


def _sources(view) -> list:
    """The ``source`` of every alert of a view (per CE for ``ce_alerts``)."""
    return [a.source if isinstance(a, Alert) else _sources(a) for a in view]


def _payload(alert: Alert) -> tuple:
    """What ``Alert.__eq__`` does not compare: the source and the updates
    themselves, not only their seqnos."""
    return alert.source, {var: tuple(alert.histories[var]) for var in alert.histories}


@settings(max_examples=25, deadline=None)
@given(
    matrix_algorithms, rows, seeds, st.integers(4, 10), replications,
    st.none() | intensities, st.none() | memberships,
)
def test_run_results_identical_column_for_column(
    matrix_algorithm, row, seed, n, replication, chaos, membership
):
    """Beneath the reports: equal key columns, equal alert views with the
    same ``source`` per alert (``Alert.__eq__`` ignores it), the same
    arrival stamps and the same display times, faults and membership
    on or off.  And the views are the alerts the CEs raised: the object
    kernel's CE nodes built the same alerts, source and updates
    included, and each holds the condition on updates its CE received."""
    matrix, algorithm = matrix_algorithm
    spec = TrialSpec(
        matrix, row, algorithm, seed, n,
        replication=replication,
        faults=None if chaos is None else DEFAULT_CHAOS_PROFILE.scaled(chaos),
        membership=membership,
    )
    system = MonitoringSystem(
        *scenario_trial(
            spec.resolve_scenario(), spec.algorithm, spec.seed,
            n_updates=spec.n_updates, replication=spec.replication,
            faults=spec.faults, membership=spec.membership,
        ),
        spec.seed,
    )
    object_run = system.run()
    array_run = replace(spec, kernel="array").run()
    for ce, view in zip(system.ces, array_run.ce_alerts, strict=True):
        assert [_payload(a) for a in ce.alerts] == [_payload(a) for a in view]
    for column in _KEY_COLUMNS:
        assert getattr(object_run, column) == getattr(array_run, column), column
    for view in _VIEWS:
        object_view = getattr(object_run, view)
        array_view = getattr(array_run, view)
        assert object_view == array_view, view
        assert _sources(object_view) == _sources(array_view), view
    assert object_run.arrival_stamps() == array_run.arrival_stamps()
    assert _display_times(object_run) == _display_times(array_run)
    condition = array_run.condition
    for received, alerts in zip(array_run.received, array_run.ce_alerts):
        for alert in alerts:
            assert condition.evaluate(alert.histories)
            for var in alert.histories:
                assert set(alert.histories[var]) <= set(received)


#: A Table-3 trial per row, and one chaos-churn trial with every digest
#: on: membership (churn), counters (AD rejection reasons) and quality.
_KEY_PATH_SPECS = [
    TrialSpec("multi", row, "AD-5", 7, n_updates=30) for row in ROW_ORDER
] + [
    replace(
        quality_specs("adaptive", 0.2, 1.0, 1, row="aggressive", base_seed=11)[0],
        membership=MembershipConfig(detection_timeout=4.0, catchup_latency=2.0),
        collect_counters=True,
    )
]


@pytest.mark.parametrize(
    "spec", _KEY_PATH_SPECS, ids=lambda spec: f"{spec.matrix}-{spec.row}"
)
def test_a_trial_builds_no_alert(spec, monkeypatch):
    """The array kernel steps, decides and checks on identity keys: with
    every way to build an :class:`Alert` or read one's key refused, a
    trial still reports what the unpatched object kernel reports."""
    expected = replace(spec, kernel="object").execute()

    def refuse(*args):
        raise AssertionError("the trial path built or read an Alert")

    monkeypatch.setattr(repro.core.evaluator, "alert_from_key", refuse)
    monkeypatch.setattr(ConditionEvaluator, "ingest", refuse)
    monkeypatch.setattr(ADAlgorithm, "offer", refuse)
    monkeypatch.setattr(Alert, "identity", refuse)
    report = spec.execute()
    assert report == expected
    assert report.counters == expected.counters
    assert report.quality == expected.quality
    assert report.churn == expected.churn
