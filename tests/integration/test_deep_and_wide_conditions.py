"""End-to-end tests for deeper histories (degree ≥ 3) and wider variable
sets (3 variables) — shapes the paper's model covers but its examples
don't exercise."""

import pytest

from repro.components.system import SystemConfig, run_system
from repro.core.condition import ExpressionCondition
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.update import Update, parse_trace
from repro.displayers import AD3, AD5, AD6, make_ad
from repro.props.consistency import check_consistency_single
from repro.props.orderedness import check_orderedness
from tests.conftest import alert_deg1, keys_of


def degree3_condition():
    """"Temperature rose monotonically over the last three readings
    received" — degree 3, aggressive."""
    expr = (H.x[0].value > H.x[-1].value) & (H.x[-1].value > H.x[-2].value)
    return ExpressionCondition("rising3", expr)


class TestDegree3Conditions:
    def test_degree_inferred(self):
        assert degree3_condition().degree("x") == 3

    def test_needs_three_updates(self):
        ce = ConditionEvaluator(degree3_condition())
        assert ce.ingest(Update("x", 1, 1.0)) is None
        assert ce.ingest(Update("x", 2, 2.0)) is None
        alert = ce.ingest(Update("x", 3, 3.0))
        assert alert is not None
        assert alert.histories.seqnos("x") == (3, 2, 1)

    def test_conservative_variant_deg3(self):
        cond = degree3_condition().as_conservative()
        ce = ConditionEvaluator(cond)
        ce.ingest(Update("x", 1, 1.0))
        ce.ingest(Update("x", 2, 2.0))
        # Gap between 2 and 4: conservative refuses.
        assert ce.ingest(Update("x", 4, 3.0)) is None
        assert ce.ingest(Update("x", 5, 4.0)) is None  # (5,4,2) has a gap
        assert ce.ingest(Update("x", 6, 5.0)) is not None  # (6,5,4) clean

    def test_ad3_spanning_sets_deg3(self):
        # Alert on (5,3,1) requires 2 and 4 missed; alert on (6,4,3)
        # requires 4 received -> conflict.
        cond = degree3_condition()
        ce1 = ConditionEvaluator(cond, "CE1")
        ce1.ingest_all(parse_trace("1x(1), 3x(2), 5x(3)"))
        (a1,) = ce1.alerts
        ce2 = ConditionEvaluator(cond, "CE2")
        ce2.ingest_all(parse_trace("3x(2), 4x(2.5), 6x(3.5)"))
        (a2,) = ce2.alerts
        ad = AD3("x")
        assert ad.offer(a1) is True
        assert ad.offer(a2) is False
        assert check_consistency_single(keys_of(ad.output), "x")

    def test_inconsistency_checker_deg3(self):
        cond = degree3_condition()
        ce1 = ConditionEvaluator(cond, "CE1")
        ce1.ingest_all(parse_trace("1x(1), 3x(2), 5x(3)"))
        ce2 = ConditionEvaluator(cond, "CE2")
        ce2.ingest_all(parse_trace("3x(2), 4x(2.5), 6x(3.5)"))
        both = list(ce1.alerts) + list(ce2.alerts)
        assert not check_consistency_single(keys_of(both), "x")

    def test_system_run_deg3_ad4_guarantees(self):
        cond = degree3_condition()
        workload = {
            "x": [(t * 10.0, 1000.0 + (t % 5) * 100.0 + t) for t in range(25)]
        }
        config = SystemConfig(replication=2, ad_algorithm="AD-4", front_loss=0.3)
        for seed in range(10):
            run = run_system(cond, workload, config, seed=seed)
            report = run.evaluate_properties()
            assert report.ordered
            assert report.consistent


def three_variable_condition():
    """Alert when any pairwise reactor gap exceeds 100 degrees."""
    expr = (
        (abs(H.x[0].value - H.y[0].value) > 100.0)
        | (abs(H.y[0].value - H.z[0].value) > 100.0)
        | (abs(H.x[0].value - H.z[0].value) > 100.0)
    )
    return ExpressionCondition("tri", expr)


class TestThreeVariableSystems:
    WORKLOAD = {
        var: [(t * 10.0, base + (t % 4) * 60.0) for t in range(12)]
        for var, base in (("x", 1000.0), ("y", 1050.0), ("z", 1180.0))
    }

    def test_condition_shape(self):
        cond = three_variable_condition()
        assert cond.variables == ("x", "y", "z")
        assert not cond.is_historical

    def test_ad5_three_variables_ordered(self):
        cond = three_variable_condition()
        config = SystemConfig(replication=2, ad_algorithm="AD-5", front_loss=0.2)
        for seed in range(8):
            run = run_system(cond, self.WORKLOAD, config, seed=seed)
            assert check_orderedness(run.displayed_keys, ["x", "y", "z"])

    def test_ad6_three_variables_consistent(self):
        from repro.props.consistency import check_consistency_multi

        cond = three_variable_condition()
        config = SystemConfig(replication=2, ad_algorithm="AD-6", front_loss=0.2)
        for seed in range(8):
            run = run_system(cond, self.WORKLOAD, config, seed=seed)
            assert check_consistency_multi(
                keys_of(run.displayed), ["x", "y", "z"]
            )

    def test_registry_builds_three_var_algorithms(self):
        cond = three_variable_condition()
        ad5 = make_ad("AD-5", cond)
        assert ad5.varnames == ("x", "y", "z")
        ad6 = make_ad("AD-6", cond)
        assert ad6.varnames == ("x", "y", "z")

    def test_ad1_three_variables_breaks(self):
        # Theorem 10 generalizes: find a seed where AD-1 is inconsistent.
        from repro.props.consistency import check_consistency_multi

        cond = three_variable_condition()
        config = SystemConfig(replication=2, ad_algorithm="AD-1", front_loss=0.2)
        violations = 0
        for seed in range(30):
            run = run_system(cond, self.WORKLOAD, config, seed=seed)
            if not check_consistency_multi(keys_of(run.displayed), ["x", "y", "z"]):
                violations += 1
        assert violations > 0


class TestArrivalStreamIndependence:
    """The AD algorithm choice cannot affect what ARRIVES at the AD —
    only what is displayed.  (The paper's M varies; its input does not.)"""

    def test_arrivals_identical_across_algorithms(self):
        workload = {"x": [(t * 10.0, 3100.0) for t in range(10)]}
        arrival_sets = []
        for algorithm in ("pass", "AD-1", "AD-2", "AD-3", "AD-4"):
            config = SystemConfig(
                replication=2, ad_algorithm=algorithm, front_loss=0.3
            )
            from repro.core.condition import c1

            run = run_system(c1(), workload, config, seed=12)
            arrival_sets.append(tuple(a.identity() for a in run.ad_arrivals))
        assert len(set(arrival_sets)) == 1
