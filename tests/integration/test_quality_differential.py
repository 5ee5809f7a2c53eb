"""Differential testing of the quality metrics: independent brute-force
recomputation from raw :class:`RunResult` internals.

The quality layer (:mod:`repro.quality.metrics`) classifies displayed
alerts via greedy subsequence time-matching and an incremental
detected-key set.  This suite recomputes precision/recall/duplicates
from first principles — a second evaluator pass over the broadcast log
and a plain scan over the displayed sequence, sharing no code with the
metrics module beyond the event key — and pins both implementations to
each other on the 8 minimized ✗-cell witnesses (the adversarial corpus:
every one violates a paper property, so histories genuinely disagree)
plus a small quality sweep.
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.min_witnesses import RESULT_PATH  # noqa: E402

from repro.core.alert import identity_event_key  # noqa: E402
from repro.core.evaluator import ConditionEvaluator  # noqa: E402
from repro.engine.spec import TrialSpec  # noqa: E402
from repro.quality.metrics import alert_quality  # noqa: E402
from repro.quality.sweep import quality_specs  # noqa: E402

WITNESS_ENTRIES = json.loads(RESULT_PATH.read_text())


def run_of(spec: TrialSpec):
    return spec.run()


def brute_force_quality(run) -> dict:
    """Recompute the headline counts with no shared machinery.

    Ground truth: replay the broadcast log through a fresh evaluator.
    Classification: for each expected key, scan the *whole* displayed
    sequence for carriers — the first is the detection, the rest are
    duplicates; displayed alerts carrying no expected key are false.
    """
    variables = run.condition.variables
    ideal = ConditionEvaluator(run.condition, source="ideal")
    expected_keys = []
    for _, update in run.sent_log:
        alert = ideal.ingest(update)
        if alert is not None:
            key = identity_event_key(alert.identity(), variables)
            if key not in expected_keys:
                expected_keys.append(key)
    displayed_keys = [
        identity_event_key(alert.identity(), variables)
        for alert in run.displayed
    ]
    detected = sum(1 for key in expected_keys if key in displayed_keys)
    duplicates = sum(
        displayed_keys.count(key) - 1
        for key in expected_keys
        if key in displayed_keys
    )
    false_alerts = sum(
        1 for key in displayed_keys if key not in expected_keys
    )
    expected = len(expected_keys)
    displayed = len(displayed_keys)
    return {
        "expected": expected,
        "detected": detected,
        "duplicates": duplicates,
        "false_alerts": false_alerts,
        "displayed": displayed,
        "precision": detected / displayed if displayed else 1.0,
        "recall": detected / expected if expected else 1.0,
    }


def assert_matches_brute_force(spec: TrialSpec):
    run = run_of(spec)
    quality = alert_quality(run)
    brute = brute_force_quality(run)
    assert quality.expected == brute["expected"]
    assert quality.detected == brute["detected"]
    assert quality.duplicates == brute["duplicates"]
    assert quality.false_alerts == brute["false_alerts"]
    assert quality.displayed == brute["displayed"]
    assert quality.precision == pytest.approx(brute["precision"])
    assert quality.recall == pytest.approx(brute["recall"])


class TestWitnessCorpus:
    """The pinned ✗-cells: maximally adversarial displayed sequences."""

    @pytest.mark.parametrize(
        "entry", WITNESS_ENTRIES, ids=[e["cell"] for e in WITNESS_ENTRIES]
    )
    def test_quality_matches_brute_force(self, entry):
        witness = entry["witness"]
        assert_matches_brute_force(
            TrialSpec(
                witness["matrix"],
                witness["row"],
                witness["algorithm"],
                witness["seed"],
                witness["n_updates"],
                replication=witness["replication"],
                front_loss=witness["front_loss"],
            )
        )

    @pytest.mark.parametrize(
        "entry", WITNESS_ENTRIES, ids=[e["cell"] for e in WITNESS_ENTRIES]
    )
    def test_adaptive_on_witness_schedules(self, entry):
        """The same adversarial schedules, filtered adaptively."""
        witness = entry["witness"]
        assert_matches_brute_force(
            TrialSpec(
                witness["matrix"],
                witness["row"],
                "adaptive",
                witness["seed"],
                witness["n_updates"],
                replication=witness["replication"],
                front_loss=witness["front_loss"],
            )
        )


class TestSweepCells:
    def test_lossy_chaotic_cell_matches_brute_force(self):
        for spec in quality_specs(
            "AD-1", 0.3, 1.0, 4, row="aggressive", n_updates=16
        ):
            assert_matches_brute_force(spec)

    def test_report_quality_equals_direct_metrics(self):
        # The collect_quality path through TrialSpec.execute() must carry
        # exactly the dict alert_quality computes on the same run.
        for spec in quality_specs(
            "adaptive", 0.15, 0.5, 3, row="aggressive", n_updates=14
        ):
            report = spec.execute()
            assert report.quality == alert_quality(run_of(spec)).as_dict()
