"""Conservation laws for the CountersTracer, cross-validated per run.

The kernel runs every trial to quiescence, so traced messages cannot be
left in flight: every ``link/send`` must resolve to a ``link/deliver`` or
a ``link/drop``, and every alert arriving at the AD must be displayed or
filtered.  These invariants tie the observability counters to the ground
truth that :func:`repro.analysis.metrics.collect_metrics` extracts from
the :class:`RunResult` — if either side miscounts, they diverge.

``run_scenario`` runs the array kernel, which derives these
counters order-free from its phase tallies rather than from an event
stream — and a conservation law is what a wrong derivation breaks first.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import collect_metrics
from repro.faults import DEFAULT_CHURN_PROFILE
from repro.membership import MembershipConfig
from repro.observability import CountersTracer
from repro.workloads.scenarios import (
    MULTI_VARIABLE_SCENARIOS,
    ROW_ORDER,
    SINGLE_VARIABLE_SCENARIOS,
    run_scenario,
)

rows = st.sampled_from(list(ROW_ORDER))
seeds = st.integers(0, 2**31)


def _traced_run(matrix, row, algorithm, seed, n, replication=2, **kwargs):
    scenarios = (
        MULTI_VARIABLE_SCENARIOS if matrix == "multi" else SINGLE_VARIABLE_SCENARIOS
    )
    tracer = CountersTracer()
    run = run_scenario(
        scenarios[row], algorithm, seed, n_updates=n,
        replication=replication, tracer=tracer, **kwargs,
    )
    return run, tracer.as_dict()


def _link_nodes(counters):
    return {
        key.split("/", 2)[2]
        for key in counters
        if key.startswith("link/")
    }


@settings(max_examples=30, deadline=None)
@given(rows, st.sampled_from(["pass", "AD-1", "AD-2", "AD-5"]), seeds,
       st.integers(4, 16))
def test_every_link_conserves_messages(row, algorithm, seed, n):
    matrix = "multi" if algorithm == "AD-5" else "single"
    _, counters = _traced_run(matrix, row, algorithm, seed, n)
    for node in _link_nodes(counters):
        sent = counters.get(f"link/send/{node}", 0)
        delivered = counters.get(f"link/deliver/{node}", 0)
        dropped = counters.get(f"link/drop/{node}", 0)
        assert sent == delivered + dropped, (
            f"{node}: send={sent} != deliver={delivered} + drop={dropped}"
        )


@settings(max_examples=30, deadline=None)
@given(rows, st.sampled_from(["AD-1", "AD-2", "AD-3", "AD-4"]), seeds,
       st.integers(4, 16))
def test_ad_conserves_alerts(row, algorithm, seed, n):
    _, counters = _traced_run("single", row, algorithm, seed, n)
    arrived = counters.get("ad/arrive/AD", 0)
    displayed = counters.get("ad/display/AD", 0)
    filtered = counters.get("ad/filter/AD", 0)
    assert arrived == displayed + filtered


@settings(max_examples=30, deadline=None)
@given(rows, st.sampled_from(["AD-1", "adaptive"]), seeds, st.integers(4, 16),
       st.floats(0.25, 3.0))
def test_conservation_survives_churn_and_membership(
    row, algorithm, seed, n, chaos
):
    """Crash/recovery faults with the membership lifecycle on, on the
    array kernel: front links still resolve every send (duplicated
    copies are extra sends), the AD still accounts for every arrival,
    and everything the kernel scheduled fired."""
    _, counters = _traced_run(
        "single", row, algorithm, seed, n,
        faults=DEFAULT_CHURN_PROFILE.scaled(chaos),
        membership=MembershipConfig(detection_timeout=4.0, catchup_latency=2.0),
    )
    assert any(key.startswith("membership/") for key in counters)
    for node in _link_nodes(counters):
        sent = counters.get(f"link/send/{node}", 0)
        copies = counters.get(f"link/duplicate/{node}", 0)
        delivered = counters.get(f"link/deliver/{node}", 0)
        dropped = counters.get(f"link/drop/{node}", 0)
        assert sent + copies == delivered + dropped, node
    assert counters.get("ad/arrive/AD", 0) == (
        counters.get("ad/display/AD", 0) + counters.get("ad/filter/AD", 0)
    )
    assert counters["kernel/schedule/"] == counters["kernel/fire/"]


@settings(max_examples=25, deadline=None)
@given(rows, seeds, st.integers(4, 16), st.integers(1, 3))
def test_counters_agree_with_collect_metrics(row, seed, n, replication):
    run, counters = _traced_run(
        "single", row, "AD-1", seed, n, replication=replication
    )
    metrics = collect_metrics(run)

    assert counters.get("ad/arrive/AD", 0) == metrics.alerts_arrived
    assert counters.get("ad/display/AD", 0) == metrics.alerts_displayed
    assert counters.get("ad/filter/AD", 0) == metrics.alerts_filtered

    # Per-CE: updates incorporated and alerts raised, by node name.
    for index, received in enumerate(metrics.updates_received_per_ce):
        node = f"CE{index + 1}"
        assert counters.get(f"ce/update-received/{node}", 0) == received
    for index, generated in enumerate(metrics.alerts_generated_per_ce):
        node = f"CE{index + 1}"
        assert counters.get(f"ce/alert-raised/{node}", 0) == generated

    # Every DM broadcast fans out over one front link per CE, so total
    # front-link sends = updates_sent * replication.
    front_sends = sum(
        count
        for key, count in counters.items()
        if key.startswith("link/send/DM-")
    )
    assert front_sends == metrics.updates_sent * replication

    # Front-link deliveries land at the CEs; nothing else feeds them.
    front_delivers = sum(
        count
        for key, count in counters.items()
        if key.startswith("link/deliver/DM-")
    )
    assert front_delivers == sum(metrics.updates_received_per_ce)

    # Back links are lossless: every CE alert reaches the AD.
    back_sends = sum(
        count
        for key, count in counters.items()
        if key.startswith("link/send/CE") and key.endswith("->AD")
    )
    assert back_sends == sum(metrics.alerts_generated_per_ce)
    assert back_sends == metrics.alerts_arrived
