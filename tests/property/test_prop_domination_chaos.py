"""Domination and per-algorithm guarantees survive arbitrary fault plans.

The paper's domination results (Theorems 6 and 8, extended by
composition to AD-4 and the multi-variable algorithms) are statements
about the AD alone: *given the same arrival stream*, the non-filtering
AD-1 displays a supersequence of every filtering algorithm's output.
Likewise the safety guarantees behind Theorems 5, 7 and 9 — AD-2's
output is strictly ordered, AD-3's is consistent and duplicate-free,
AD-4's is both — are per-stream properties of the filters.

Faults upstream — crashes, outages, burst loss, duplication, congestion
spikes — can mangle the stream arbitrarily, but whatever stream reaches
the AD, both the domination order and the filters' guarantees must hold
on it.  Hypothesis drives random fault intensities through full
simulated runs with the pass-through AD, harvests the fault-mangled
arrival stream, and checks every claim on it.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import (
    consistency_property,
    strict_orderedness_property,
)
from repro.displayers.ad1 import AD1
from repro.displayers.ad2 import AD2
from repro.displayers.ad3 import AD3
from repro.displayers.ad4 import AD4
from repro.displayers.ad5 import AD5
from repro.displayers.ad6 import AD6
from repro.displayers.base import run_ad
from repro.faults import DEFAULT_CHAOS_PROFILE
from repro.props.consistency import check_consistency_multi
from repro.props.domination import dominates_on
from repro.props.orderedness import check_orderedness
from repro.workloads.scenarios import (
    MULTI_VARIABLE_SCENARIOS,
    ROW_ORDER,
    SINGLE_VARIABLE_SCENARIOS,
    run_scenario,
)
from tests.conftest import keys_of

rows = st.sampled_from(list(ROW_ORDER))
seeds = st.integers(0, 2**31)
intensities = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)


def _arrivals(scenarios, row, seed, n, chaos):
    faults = DEFAULT_CHAOS_PROFILE.scaled(chaos)
    run = run_scenario(
        scenarios[row],
        "pass",
        seed,
        n_updates=n,
        faults=None if faults.is_clean else faults,
    )
    return run.ad_arrivals


@settings(max_examples=30, deadline=None)
@given(rows, seeds, st.integers(5, 16), intensities)
def test_single_variable_domination_survives_faults(row, seed, n, chaos):
    """Theorems 6/8 (+ composition): AD-1 dominates AD-2, AD-3 and AD-4
    on every stream a fault plan can produce."""
    arrivals = _arrivals(SINGLE_VARIABLE_SCENARIOS, row, seed, n, chaos)
    for dominated in (AD2("x"), AD3("x"), AD4("x")):
        holds, _strict = dominates_on(AD1(), dominated, arrivals)
        assert holds, (
            f"AD-1 >= {dominated.name} violated on a fault-mangled stream "
            f"of {len(arrivals)} arrivals"
        )


@settings(max_examples=15, deadline=None)
@given(rows, seeds, st.integers(4, 10), intensities)
def test_multi_variable_domination_survives_faults(row, seed, n, chaos):
    arrivals = _arrivals(MULTI_VARIABLE_SCENARIOS, row, seed, n, chaos)
    for dominated in (AD5(("x", "y")), AD6(("x", "y"))):
        holds, _strict = dominates_on(AD1(), dominated, arrivals)
        assert holds, (
            f"AD-1 >= {dominated.name} violated on a fault-mangled stream "
            f"of {len(arrivals)} arrivals"
        )


@settings(max_examples=30, deadline=None)
@given(rows, seeds, st.integers(5, 16), intensities)
def test_filter_guarantees_survive_faults(row, seed, n, chaos):
    """Theorems 5/7/9 preconditions: whatever stream the faults produce,
    AD-2 emits strictly ordered output, AD-3 consistent duplicate-free
    output, and AD-4 both."""
    arrivals = _arrivals(SINGLE_VARIABLE_SCENARIOS, row, seed, n, chaos)
    ordered = strict_orderedness_property("x")
    consistent = consistency_property("x")
    assert ordered(run_ad(AD2("x"), arrivals))
    assert consistent(run_ad(AD3("x"), arrivals))
    ad4_out = run_ad(AD4("x"), arrivals)
    assert ordered(ad4_out) and consistent(ad4_out)


@settings(max_examples=15, deadline=None)
@given(rows, seeds, st.integers(4, 10), intensities)
def test_multi_variable_guarantees_survive_faults(row, seed, n, chaos):
    """AD-5 guarantees orderedness, AD-6 orderedness and consistency, on
    arbitrary fault-mangled multi-variable streams."""
    arrivals = _arrivals(MULTI_VARIABLE_SCENARIOS, row, seed, n, chaos)
    variables = ["x", "y"]
    assert check_orderedness(keys_of(run_ad(AD5(variables), arrivals)), variables)
    ad6_out = run_ad(AD6(variables), arrivals)
    assert check_orderedness(keys_of(ad6_out), variables)
    assert check_consistency_multi(keys_of(ad6_out), variables)
