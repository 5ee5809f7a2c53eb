"""Property-based tests for the dynamic-membership lifecycle.

Three contracts keep membership honest:

1. **Determinism under churn** — a run with crash/recovery faults *and*
   the detect → suspect → recover → catch-up lifecycle active must stay
   record→replay bit-identical, on both kernels: the whole lifecycle is
   planned analytically (:func:`repro.membership.registry.plan_membership`
   consumes no randomness), so nothing about recovery may perturb the
   RNG streams or the event schedule.
2. **Instant recovery is invisible** — as detection latency and catch-up
   cost go to zero (``detection_timeout=0``, ``catchup_latency=0``,
   ``retry_backoff=0``, log-sourced state transfer), the property
   verdicts must equal the static-membership baseline under the same
   crash faults: recovery can only *restore* guarantees, never
   manufacture violations the crash alone would not have produced.
3. **Kernel indistinguishability** — the struct-of-arrays executor must
   produce identical reports, counters and churn digests for
   membership-bearing specs, exactly as it already must for the fault
   surface (:mod:`tests.property.test_prop_kernel_differential`).
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.engine.spec import TrialSpec
from repro.faults import DEFAULT_CHURN_PROFILE
from repro.faults.plan import FaultProfile
from repro.membership import MembershipConfig
from repro.observability import record_trial, replay_trace
from repro.workloads.scenarios import ROW_ORDER

rows = st.sampled_from(list(ROW_ORDER))
seeds = st.integers(0, 2**31)
algorithms_single = st.sampled_from(["pass", "AD-1", "AD-2", "AD-3", "AD-4"])
algorithms_multi = st.sampled_from(["pass", "AD-1", "AD-5", "AD-6"])
intensities = st.floats(0.25, 3.0, allow_nan=False, allow_infinity=False)

#: Membership configs spanning the regimes that matter: impatient and
#: patient detectors, instant through slow catch-up, every source policy.
memberships = st.builds(
    MembershipConfig,
    heartbeat_interval=st.sampled_from((2.5, 5.0, 10.0)),
    detection_timeout=st.floats(0.0, 8.0, allow_nan=False),
    suspicion_threshold=st.integers(1, 3),
    catchup_latency=st.floats(0.0, 4.0, allow_nan=False),
    retry_backoff=st.floats(0.0, 2.0, allow_nan=False),
    catchup_source=st.sampled_from(("peer-then-log", "peer", "log", "none")),
)

#: CE-crash-only faults: the divergence the lifecycle is meant to heal,
#: without link noise masking the comparison in the baseline property.
CE_CRASH_FAULTS = FaultProfile(ce_crash_rate=0.02, ce_mean_repair=25.0)

#: Zero-latency lifecycle: detect immediately, catch up for free from
#: the always-available broadcast log.
INSTANT_RECOVERY = MembershipConfig(
    detection_timeout=0.0,
    suspicion_threshold=1,
    catchup_latency=0.0,
    retry_backoff=0.0,
    catchup_source="log",
)


@settings(max_examples=15, deadline=None)
@given(rows, algorithms_single, seeds, st.integers(4, 12), intensities, memberships)
def test_churn_replay_is_bit_identical(row, algorithm, seed, n, chaos, membership):
    """Record→replay stays bit-identical with churn faults *and* the
    membership lifecycle both active (object kernel)."""
    spec = TrialSpec(
        "single", row, algorithm, seed, n,
        replication=2,
        faults=DEFAULT_CHURN_PROFILE.scaled(chaos),
        membership=membership,
    )
    trace = record_trial(spec)
    # The planned lifecycle is part of the record ...
    assert any(event.stage == "membership" for event in trace.events)
    # ... and the replay (spec reconstructed from the header dict,
    # MembershipConfig included) reproduces every event bit for bit.
    result = replay_trace(trace)
    assert result.identical, result.describe()


@settings(max_examples=8, deadline=None)
@given(rows, algorithms_multi, seeds, st.integers(4, 8), intensities, memberships)
def test_multi_variable_churn_replay_is_bit_identical(
    row, algorithm, seed, n, chaos, membership
):
    spec = TrialSpec(
        "multi", row, algorithm, seed, n,
        replication=2,
        faults=DEFAULT_CHURN_PROFILE.scaled(chaos),
        membership=membership,
    )
    result = replay_trace(record_trial(spec))
    assert result.identical, result.describe()


@settings(max_examples=8, deadline=None)
@given(rows, seeds, st.integers(4, 10), intensities, memberships)
def test_churn_replay_survives_a_file_round_trip(
    tmp_path_factory, row, seed, n, chaos, membership
):
    """The MembershipConfig rides the JSONL header: serialise → parse →
    replay must re-plan the same lifecycle."""
    from repro.observability import load_trace

    spec = TrialSpec(
        "single", row, "AD-2", seed, n,
        replication=2,
        faults=DEFAULT_CHURN_PROFILE.scaled(chaos),
        membership=membership,
    )
    trace = record_trial(spec)
    path = tmp_path_factory.mktemp("traces") / "churn.jsonl"
    trace.write(path)
    loaded = load_trace(path)
    assert loaded.event_lines() == trace.event_lines()
    assert replay_trace(loaded).identical


@settings(max_examples=20, deadline=None)
@given(rows, algorithms_single, seeds, st.integers(4, 14))
def test_instant_recovery_matches_static_membership_verdicts(
    row, algorithm, seed, n
):
    """Zero-cost detection + catch-up yields the same property verdicts
    as running without membership at all, under the same crash faults."""
    base = TrialSpec(
        "single", row, algorithm, seed, n,
        replication=1, front_loss=0.0, faults=CE_CRASH_FAULTS,
    )
    recovered = replace(base, membership=INSTANT_RECOVERY)
    base_report = base.execute()
    recovered_report = recovered.execute()
    assert base_report.summary == recovered_report.summary
    # The lifecycle ran (a churn digest is attached) — the equality above
    # is not vacuous whenever the faults materialized a crash.
    assert recovered_report.churn is not None
    assert base_report.churn is None


def _assert_reports_identical(spec: TrialSpec) -> None:
    object_report = replace(spec, kernel="object").execute()
    array_report = replace(spec, kernel="array").execute()
    assert object_report == array_report
    assert object_report.summary == array_report.summary
    assert object_report.counters == array_report.counters
    assert object_report.churn == array_report.churn


@settings(max_examples=12, deadline=None)
@given(rows, algorithms_single, seeds, st.integers(4, 12), intensities, memberships)
def test_membership_reports_identical_across_kernels(
    row, algorithm, seed, n, chaos, membership
):
    """Both kernels execute the same planned lifecycle: identical
    verdicts, counters and churn digests."""
    _assert_reports_identical(
        TrialSpec(
            "single", row, algorithm, seed, n,
            replication=2,
            faults=DEFAULT_CHURN_PROFILE.scaled(chaos),
            membership=membership,
            collect_counters=True,
        )
    )


@settings(max_examples=6, deadline=None)
@given(rows, algorithms_multi, seeds, st.integers(4, 8), intensities, memberships)
def test_multi_variable_membership_reports_identical_across_kernels(
    row, algorithm, seed, n, chaos, membership
):
    _assert_reports_identical(
        TrialSpec(
            "multi", row, algorithm, seed, n,
            replication=2,
            faults=DEFAULT_CHURN_PROFILE.scaled(chaos),
            membership=membership,
            collect_counters=True,
        )
    )
