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
kernels and asserts exactly that.  Any divergence here voids every
benchmark number.  (Ordered ``repro.trace/1`` streams come from the
object kernel alone; the dispatch that guarantees it is unit-tested in
``tests/unit/test_arraykernel.py``.)
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.engine.spec import TrialSpec
from repro.faults import DEFAULT_CHAOS_PROFILE
from repro.workloads.scenarios import ROW_ORDER
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
    # counters/delivery are compare=False on PropertyReport, so the
    # dataclass equality above does not cover them.
    assert object_report.counters == array_report.counters
    assert object_report.delivery == array_report.delivery


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
            collect_counters=True, collect_delivery=True,
        )
    )


@settings(max_examples=8, deadline=None)
@given(rows, algorithms_multi, seeds, st.integers(4, 8), intensities)
def test_multi_variable_fault_reports_identical(row, algorithm, seed, n, chaos):
    _assert_reports_identical(
        TrialSpec(
            "multi", row, algorithm, seed, n,
            faults=DEFAULT_CHAOS_PROFILE.scaled(chaos),
            collect_counters=True, collect_delivery=True,
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
            collect_coverage=True, collect_delivery=True,
        )
    )
