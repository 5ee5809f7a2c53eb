"""Byte pins of the sweep renderers.

A small instance of each of the five sweep families (chaos, churn,
quality, and the loss and replication ablations) is rendered and hashed:
the table text of each, plus the quality sweep's JSON document.  The
sha256 literals were taken before the families shared one ``Sweep``, so
they hold that the merge moved no byte of any table or document — the
tier-1 form of what ``make artifacts-check`` checks at full size.  The
churn literal was re-taken once, when missed alerts moved to the
event-keyed ground truth (``alert_quality``): its degree-2 membership-off
baseline at intensity 2 went 0.254 → 0.218, every other byte unchanged.
"""

import hashlib
import json

import pytest


def _render_all() -> dict[str, str]:
    from repro.analysis.sweeps import LOSS_SWEEP, REPLICATION_SWEEP
    from repro.faults import CHAOS_SWEEP, CHURN_SWEEP
    from repro.quality import QUALITY_SWEEP

    quality = QUALITY_SWEEP.run(
        algorithms=("AD-1", "AD-3", "adaptive"), losses=(0.0, 0.3, 1.0),
        intensities=(0.0, 1.0), trials=3, row="aggressive", n_updates=12,
    )
    document = QUALITY_SWEEP.document(
        quality, QUALITY_SWEEP.settings(row="aggressive", trials=3, n_updates=12)
    )
    return {
        "chaos": CHAOS_SWEEP.render(CHAOS_SWEEP.run(
            intensities=(0.0, 1.5), replications=(1, 2), trials=4, n_updates=12
        )),
        "churn": CHURN_SWEEP.render(CHURN_SWEEP.run(
            intensities=(1.0, 2.0), detection_timeouts=(4.0,),
            catchup_latencies=(1.0, 2.0), trials=4,
        )),
        "quality": QUALITY_SWEEP.render(quality),
        "quality.json": json.dumps(document, indent=2) + "\n",
        "loss": "loss\n" + LOSS_SWEEP.render(LOSS_SWEEP.run(
            algorithms=("AD-1",), losses=(0.0, 0.3), trials=4, n_updates=10
        )),
        "replication": "replication\n" + REPLICATION_SWEEP.render(
            REPLICATION_SWEEP.run(
                algorithms=("AD-1",), replications=(1, 3), trials=4,
                n_updates=10,
            )
        ),
    }


PINS = {
    "chaos": (
        "821df48cd7c8af5f46d55a3253b745ae"
        "5e5e7ca5e4de9ed7f6997648027970e2"
    ),
    "churn": (
        "f04a495d64985ab7377a570cadd0e0f9"
        "caf493c5ade8d3070edd9ee61d7e4546"
    ),
    "quality": (
        "c3b89dd90a0007ac3907fe495d685b97"
        "6e304b56b6092b7333c7eded53b155cd"
    ),
    "quality.json": (
        "218df5037155ca3446dabdd56f1482dd"
        "cc2d850613a943fa4d2a8c208afd676f"
    ),
    "loss": (
        "e03461c7980a063306c588e563b0fd93"
        "e06294d7ddcbd4ae6573c679c4f3d60d"
    ),
    "replication": (
        "19ca967dd1a51b9a491521e9361aae1d"
        "bc8054acb0ee1967aee052e6e9d4d2cd"
    ),
}


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    return _render_all()


@pytest.mark.parametrize("name", sorted(PINS))
def test_rendered_sweep_matches_its_pin(rendered, name):
    digest = hashlib.sha256(rendered[name].encode()).hexdigest()
    assert digest == PINS[name], rendered[name]
