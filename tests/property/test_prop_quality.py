"""Property-based tests for the alert-quality layer and the adaptive
displayer.

Four families of invariants:

* **Conservation** — every arrival is displayed or filtered, and every
  displayed alert is exactly one of detection / duplicate / false alert,
  at any loss, fault intensity, or algorithm (including adaptive and the
  diversity traffic shapes).
* **Bounds** — precision and recall live in [0, 1]; one latency sample
  per detection, none negative (an alert cannot be displayed before its
  triggering update was broadcast).
* **Ideal-conditions recall** — with zero front loss and no faults every
  CE receives the whole broadcast and emits the ideal alert sequence in
  order over FIFO links, so first arrivals of event keys are key-ordered
  and *every* single-variable algorithm detects every expected event.
* **Adaptive determinism** — adaptive runs are bit-identical across the
  object and array kernels, and record→replay through every service
  runtime byte-for-byte.

Besides, on a degree-1 condition the event view agrees with an identity
replay of the ideal CE (the ground truth the missed-alert columns used
before they were read off ``alert_quality``): same expected, missed and
latency samples.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.evaluator import ConditionEvaluator
from repro.engine.spec import SCENARIO_MATRICES, TrialSpec
from repro.faults import DEFAULT_CHAOS_PROFILE
from repro.quality.metrics import alert_quality
from repro.service import check_conformance, default_runtimes, record_feed

single_rows = st.sampled_from(sorted(SCENARIO_MATRICES["single"]))
multi_rows = st.sampled_from(sorted(SCENARIO_MATRICES["multi"]))
seeds = st.integers(0, 2**31)
algorithms = st.sampled_from(
    ["pass", "AD-1", "AD-2", "AD-3", "AD-4", "adaptive"]
)
losses = st.floats(0.0, 0.8, allow_nan=False, allow_infinity=False)
intensities = st.one_of(
    st.just(0.0), st.floats(0.25, 2.5, allow_nan=False, allow_infinity=False)
)


def quality_of(spec: TrialSpec) -> dict:
    return replace(spec, collect_quality=True).execute().quality


@settings(max_examples=25, deadline=None)
@given(single_rows, algorithms, seeds, st.integers(4, 14), losses, intensities)
def test_conservation_and_bounds(row, algorithm, seed, n, loss, intensity):
    faults = DEFAULT_CHAOS_PROFILE.scaled(intensity) if intensity else None
    quality = quality_of(
        TrialSpec(
            "single", row, algorithm, seed, n,
            front_loss=loss, faults=faults,
        )
    )
    assert quality["displayed"] + quality["filtered"] == quality["arrivals"]
    assert (
        quality["detected"] + quality["duplicates"] + quality["false_alerts"]
        == quality["displayed"]
    )
    assert quality["missed"] == quality["expected"] - quality["detected"]
    assert 0.0 <= quality["precision"] <= 1.0
    assert 0.0 <= quality["recall"] <= 1.0
    assert len(quality["latency_samples"]) == quality["detected"]
    assert all(sample >= 0.0 for sample in quality["latency_samples"])


@settings(max_examples=15, deadline=None)
@given(multi_rows, st.sampled_from(["AD-5", "AD-6", "adaptive"]),
       seeds, st.integers(4, 10), losses)
def test_conservation_multi_variable(row, algorithm, seed, n, loss):
    quality = quality_of(
        TrialSpec("multi", row, algorithm, seed, n, front_loss=loss)
    )
    assert quality["displayed"] + quality["filtered"] == quality["arrivals"]
    assert (
        quality["detected"] + quality["duplicates"] + quality["false_alerts"]
        == quality["displayed"]
    )
    assert 0.0 <= quality["precision"] <= 1.0
    assert 0.0 <= quality["recall"] <= 1.0


def identity_replay(run) -> tuple[int, int, list[float]]:
    """Oracle: expected and missed counts and latency samples by alert
    identity.  The ideal CE is a ``ConditionEvaluator`` fed the broadcast
    log; an expected identity is delivered when an alert with that
    identity is displayed, at its first display."""
    evaluator = ConditionEvaluator(run.condition, source="N")
    triggered: dict[tuple, float] = {}
    for time, update in run.sent_log:
        alert = evaluator.ingest(update)
        if alert is not None:
            triggered.setdefault(alert.identity(), time)
    first_display: dict[tuple, float] = {}
    for identity, index in zip(run.displayed_keys, run.displayed_arrivals):
        first_display.setdefault(identity, run.ad_arrival_times[index])
    latencies = [
        first_display[identity] - time
        for identity, time in triggered.items()
        if identity in first_display
    ]
    return len(triggered), len(triggered) - len(latencies), latencies


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["non-historical", "bursty"]), algorithms, seeds,
    st.integers(4, 20), st.integers(1, 3), losses, intensities,
)
def test_degree_one_event_view_matches_the_identity_replay(
    row, algorithm, seed, n, replication, loss, intensity
):
    # Both rows run c1 (degree 1), where an event key and an identity
    # are in bijection: this is why moving the Figure-1 artifacts onto
    # alert_quality left them byte-identical.
    faults = DEFAULT_CHAOS_PROFILE.scaled(intensity) if intensity else None
    run = TrialSpec(
        "single", row, algorithm, seed, n,
        replication=replication, front_loss=loss, faults=faults,
    ).run()
    assert run.condition.degrees == {"x": 1}
    expected, missed, latencies = identity_replay(run)
    quality = alert_quality(run)
    assert (quality.expected, quality.missed) == (expected, missed)
    assert sorted(quality.latency_samples) == sorted(latencies)


@settings(max_examples=25, deadline=None)
@given(single_rows, algorithms, seeds, st.integers(4, 14), st.integers(1, 3))
def test_zero_loss_zero_fault_recall_is_total(row, algorithm, seed, n, repl):
    quality = quality_of(
        TrialSpec(
            "single", row, algorithm, seed, n,
            replication=repl, front_loss=0.0,
        )
    )
    assert quality["recall"] == 1.0
    assert quality["false_alerts"] == 0  # lossless histories never lie


@settings(max_examples=12, deadline=None)
@given(single_rows, seeds, st.integers(4, 14), losses, intensities)
def test_adaptive_is_kernel_identical(row, seed, n, loss, intensity):
    faults = DEFAULT_CHAOS_PROFILE.scaled(intensity) if intensity else None
    spec = TrialSpec(
        "single", row, "adaptive", seed, n,
        front_loss=loss, faults=faults,
        collect_quality=True, collect_counters=True,
    )
    object_report = replace(spec, kernel="object").execute()
    array_report = replace(spec, kernel="array").execute()
    assert object_report == array_report
    assert object_report.quality == array_report.quality
    assert object_report.counters == array_report.counters


@settings(max_examples=6, deadline=None)
@given(multi_rows, seeds, st.integers(4, 8))
def test_adaptive_is_kernel_identical_multi(row, seed, n):
    spec = TrialSpec(
        "multi", row, "adaptive", seed, n, collect_quality=True
    )
    assert (
        replace(spec, kernel="object").execute()
        == replace(spec, kernel="array").execute()
    )


@settings(max_examples=4, deadline=None)
@given(single_rows, seeds, st.integers(4, 10), losses)
def test_adaptive_record_replay_conforms_across_runtimes(row, seed, n, loss):
    spec = TrialSpec("single", row, "adaptive", seed, n, front_loss=loss)
    feed = record_feed(spec)
    report = check_conformance(feed, default_runtimes())
    assert report.identical, {
        r.runtime: r.digest() for r in report.results
    }
