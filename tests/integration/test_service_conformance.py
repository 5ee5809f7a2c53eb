"""Differential conformance: the service runtime vs the simulator.

The heart of this subsystem's test archetype.  A recorded update feed
replayed through every runtime — both simulator kernels, the
scheduler-free direct core, and the asyncio service over real sockets —
must produce **byte-identical** displayed-alert frame sequences and
identical property verdicts.  The pinned corpus covers:

* the 8 minimized ✗-cell witnesses of Tables 1–3 (the smallest known
  runs violating orderedness/completeness/consistency) — each must
  still violate its target property *identically* on every runtime;
* healthy runs across rows, algorithms and replication degrees;
* a faulty run (burst loss + outages via the chaos profile) and a
  dynamic-membership run (CE crash → detect → rejoin → catch-up),
  whose feeds the service must reproduce despite never simulating the
  faults itself — the feed records their delivery-stream consequences.
"""

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # `python -m pytest` from elsewhere
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.min_witnesses import RESULT_PATH  # noqa: E402

from repro.displayers.registry import (  # noqa: E402
    algorithm_info,
    algorithm_names,
)
from repro.engine.spec import TrialSpec  # noqa: E402
from repro.faults import DEFAULT_CHAOS_PROFILE  # noqa: E402
from repro.membership import MembershipConfig  # noqa: E402
from repro.service import (  # noqa: E402
    check_conformance,
    default_runtimes,
    record_feed,
)

WITNESS_ENTRIES = json.loads(RESULT_PATH.read_text())


def assert_conforms(spec: TrialSpec):
    feed = record_feed(spec)
    report = check_conformance(feed, default_runtimes())
    digests = {r.runtime: r.digest() for r in report.results}
    assert report.identical, (
        f"runtimes diverged on {spec}: digests={digests}, "
        f"verdicts={ {r.runtime: r.verdicts for r in report.results} }"
    )
    assert {"kernel:object", "kernel:array", "direct", "asyncio"} == set(digests)
    return report


class TestMinimizedWitnessFeeds:
    """The 8 pinned ✗-cells: violations must survive the runtime swap."""

    @pytest.mark.parametrize(
        "entry", WITNESS_ENTRIES, ids=[e["cell"] for e in WITNESS_ENTRIES]
    )
    def test_witness_conforms_and_still_violates(self, entry):
        witness = entry["witness"]
        spec = TrialSpec(
            witness["matrix"], witness["row"], witness["algorithm"],
            witness["seed"], witness["n_updates"],
            replication=witness["replication"],
            front_loss=witness["front_loss"],
        )
        report = assert_conforms(spec)
        assert report.verdicts[entry["target"]] is False, (
            f"{entry['cell']}: every runtime must reproduce the "
            f"{entry['target']} violation"
        )


class TestHealthyFeeds:
    @pytest.mark.parametrize(
        "row,algorithm,replication",
        [
            ("lossless", "AD-1", 2),
            ("non-historical", "AD-2", 2),
            ("conservative", "AD-3", 3),
            ("aggressive", "AD-4", 2),
            ("aggressive", "AD-6", 3),
        ],
    )
    def test_single_variable_rows(self, row, algorithm, replication):
        assert_conforms(
            TrialSpec("single", row, algorithm, seed=13, n_updates=30,
                      replication=replication)
        )

    def test_multi_variable_row(self):
        assert_conforms(
            TrialSpec("multi", "aggressive", "AD-5", seed=3, n_updates=30,
                      replication=3)
        )

    def test_lossless_verdicts_all_hold(self):
        report = assert_conforms(
            TrialSpec("single", "lossless", "AD-1", seed=1, n_updates=30)
        )
        assert report.verdicts == {
            "ordered": True, "complete": True, "consistent": True,
        }


class TestEveryAlgorithm:
    """Each registered AD, served: the server decides on identity keys
    while the kernels and the direct core offer alerts.  The chaos
    profile makes the stateful filters work — ``adaptive`` switches rungs
    on rejections."""

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_single_variable(self, algorithm):
        assert_conforms(
            TrialSpec("single", "aggressive", algorithm, seed=17, n_updates=80,
                      faults=DEFAULT_CHAOS_PROFILE.scaled(1.5))
        )

    @pytest.mark.parametrize(
        "algorithm",
        [name for name in algorithm_names() if algorithm_info(name).multi_variable],
    )
    def test_multi_variable(self, algorithm):
        assert_conforms(
            TrialSpec("multi", "aggressive", algorithm, seed=17, n_updates=30,
                      replication=3)
        )


class TestDegradedFeeds:
    def test_chaos_feed_conforms(self):
        faults = DEFAULT_CHAOS_PROFILE.scaled(1.5)
        assert_conforms(
            TrialSpec("single", "aggressive", "AD-4", seed=11, n_updates=30,
                      faults=faults)
        )

    def test_membership_feed_conforms(self):
        # Crash → detect → rejoin → catch-up changes the delivery streams;
        # A_i = T(U_i) still holds, so the feed replays conformantly.
        from repro.faults.plan import FaultProfile

        assert_conforms(
            TrialSpec(
                "single", "aggressive", "AD-3", seed=5, n_updates=40,
                faults=FaultProfile(ce_crash_rate=0.01, ce_mean_repair=40.0),
                membership=MembershipConfig(),
            )
        )
