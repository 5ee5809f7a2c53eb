"""Unit tests for the orderedness property checker."""

from repro.props.orderedness import check_orderedness
from tests.conftest import alert_deg1, alert_xy, keys_of


class TestSingleVariable:
    def test_ordered(self):
        alerts = [alert_deg1(1), alert_deg1(2), alert_deg1(5)]
        assert check_orderedness(keys_of(alerts), ["x"])

    def test_empty_is_ordered(self):
        assert check_orderedness([], ["x"])

    def test_equal_seqnos_allowed(self):
        # Orderedness is non-decreasing in the paper's definition.
        alerts = [alert_deg1(2), alert_deg1(2)]
        assert check_orderedness(keys_of(alerts), ["x"])

    def test_inversion_detected(self):
        alerts = [alert_deg1(2), alert_deg1(1)]
        result = check_orderedness(keys_of(alerts), ["x"])
        assert not result
        assert result.violating_variable == "x"
        assert result.violation_index == 1

    def test_first_inversion_reported(self):
        alerts = [alert_deg1(1), alert_deg1(3), alert_deg1(2), alert_deg1(1)]
        assert check_orderedness(keys_of(alerts), ["x"]).violation_index == 2


class TestMultiVariable:
    def test_ordered_in_both(self):
        alerts = [alert_xy(1, 1), alert_xy(2, 1), alert_xy(2, 2)]
        assert check_orderedness(keys_of(alerts), ["x", "y"])

    def test_inversion_in_second_variable(self):
        alerts = [alert_xy(1, 2), alert_xy(2, 1)]
        result = check_orderedness(keys_of(alerts), ["x", "y"])
        assert not result
        assert result.violating_variable == "y"

    def test_theorem_10_output_unordered(self):
        # A = <a(2x,1y), a(1x,2y)>: Πx A = <2,1> is unordered.
        alerts = [alert_xy(2, 1), alert_xy(1, 2)]
        assert not check_orderedness(keys_of(alerts), ["x", "y"])

    def test_bool_result_coercion(self):
        assert check_orderedness([], ["x", "y"])
