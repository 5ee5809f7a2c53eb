"""Unit tests for alerts and alert-sequence helpers."""

from repro.core.alert import (
    Alert,
    make_alert,
)
from repro.core.update import Update


def deg2(head, prev, var="x", cond="c", source=""):
    return make_alert(
        cond, {var: [Update(var, head, 0.0), Update(var, prev, 0.0)]}, source
    )


class TestAlert:
    def test_seqno_is_history_head(self):
        alert = deg2(3, 1)
        assert alert.seqno("x") == 3

    def test_variables(self):
        alert = make_alert(
            "cm", {"x": [Update("x", 2)], "y": [Update("y", 1)]}
        )
        assert alert.histories.variables == ("x", "y")

    def test_identity_equal_same_histories(self):
        assert deg2(3, 1) == deg2(3, 1)
        assert deg2(3, 1).identity() == deg2(3, 1).identity()

    def test_identity_differs_on_history(self):
        # §3: a1 on (2x, 3x) vs a2 on (1x, 3x) are NOT duplicates.
        assert deg2(3, 2) != deg2(3, 1)

    def test_source_not_part_of_identity(self):
        assert deg2(3, 1, source="CE1") == deg2(3, 1, source="CE2")

    def test_condname_part_of_identity(self):
        assert deg2(3, 1, cond="a").identity() != deg2(3, 1, cond="b").identity()

    def test_with_source(self):
        alert = deg2(3, 1).with_source("CE9")
        assert alert.source == "CE9"

    def test_shorthand_single_variable(self):
        assert deg2(3, 1).shorthand() == "a(3x,1x)"

    def test_shorthand_multi_variable(self):
        alert = make_alert(
            "cm", {"x": [Update("x", 2)], "y": [Update("y", 1)]}
        )
        assert alert.shorthand() == "a(2x; 1y)"

    def test_hashable(self):
        assert len({deg2(3, 1), deg2(3, 1)}) == 1


class TestHelpers:
    def test_equal_alerts_share_one_identity(self):
        alerts = [deg2(3, 1), deg2(3, 1), deg2(4, 3)]
        assert len(frozenset(a.identity() for a in alerts)) == 2
