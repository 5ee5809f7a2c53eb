"""Unit tests for update histories (Hx, as the evaluator keeps them) and
history snapshots."""

import pytest

from repro.core.condition import ExpressionCondition, PredicateCondition
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.history import HistorySnapshot, history_is_consecutive
from repro.core.update import Update


def make(var: str, seqno: int, value: float = 0.0) -> Update:
    return Update(var, seqno, value)


def probe(degrees: dict[str, int]) -> ConditionEvaluator:
    """A CE whose condition always holds: once H is defined, every arrival
    returns an alert carrying the H the evaluator holds."""
    return ConditionEvaluator(PredicateCondition("probe", degrees, lambda h: True))


class TestUpdateHistory:
    """``Hx`` as the evaluator's per-variable buffers keep it."""

    def test_undefined_until_degree_updates(self):
        ce = probe({"x": 2})
        assert not ce.is_warmed_up
        assert ce.ingest(make("x", 1)) is None
        assert not ce.is_warmed_up
        assert ce.ingest(make("x", 2)) is not None
        assert ce.is_warmed_up

    def test_indexing_follows_paper(self):
        # After update 7 arrives, Hx[0] is 7x and Hx[-1] is the previous.
        condition = ExpressionCondition(
            "paper", (H.x[0].seqno == 7) & (H.x[-1].seqno == 5)
        )
        ce = ConditionEvaluator(condition)
        assert ce.ingest(make("x", 5)) is None
        assert ce.ingest(make("x", 7)) is not None

    def test_gap_preserved(self):
        # 6x lost: Hx[-1] is 5x when 7x arrives.
        ce = probe({"x": 2})
        ce.ingest(make("x", 5))
        assert ce.ingest(make("x", 7)).histories.seqnos("x") == (7, 5)

    def test_ring_evicts_oldest(self):
        ce = probe({"x": 2})
        alerts = ce.ingest_all([make("x", seqno) for seqno in (1, 2, 3)])
        assert alerts[-1].histories.seqnos("x") == (3, 2)

    def test_non_increasing_seqno_rejected(self):
        ce = probe({"x": 2})
        ce.ingest(make("x", 3))
        with pytest.raises(ValueError):
            ce.ingest(make("x", 3))
        with pytest.raises(ValueError):
            ce.ingest(make("x", 2))
        assert [u.seqno for u in ce.received] == [3]  # rejected, not recorded

    def test_snapshot_most_recent_first(self):
        ce = probe({"x": 3})
        alerts = ce.ingest_all([make("x", seqno) for seqno in (1, 2, 4)])
        assert [u.seqno for u in alerts[-1].histories["x"]] == [4, 2, 1]


class TestHistorySet:
    """``H``: one history per variable of the condition."""

    def test_defined_when_all_defined(self):
        ce = probe({"x": 1, "y": 2})
        ce.ingest(make("x", 1))
        assert not ce.is_warmed_up
        ce.ingest(make("y", 1))
        assert not ce.is_warmed_up
        ce.ingest(make("y", 2))
        assert ce.is_warmed_up

    def test_routes_by_variable(self):
        ce = probe({"x": 1, "y": 1})
        ce.ingest(make("x", 1))
        alert = ce.ingest(make("y", 4))
        assert alert.histories["x"][0].seqno == 1
        assert alert.histories["y"][0].seqno == 4

    def test_ignores_unknown_variables(self):
        ce = probe({"x": 1})
        assert ce.ingest(make("z", 1)) is None  # silently dropped
        assert not ce.is_warmed_up
        assert ce.received == ()


class TestHistorySnapshot:
    def test_identity_ignores_values(self):
        snap1 = HistorySnapshot({"x": (make("x", 3, 100.0),)})
        snap2 = HistorySnapshot({"x": (make("x", 3, 999.0),)})
        assert snap1 == snap2
        assert hash(snap1) == hash(snap2)

    def test_identity_distinguishes_histories(self):
        # Example from §3: a1 triggered on (3x, 2x), a2 on (3x, 1x) — not
        # duplicates even though both triggered when 3x arrived.
        snap1 = HistorySnapshot({"x": (make("x", 3), make("x", 2))})
        snap2 = HistorySnapshot({"x": (make("x", 3), make("x", 1))})
        assert snap1 != snap2

    def test_seqno_accessor(self):
        snap = HistorySnapshot({"x": (make("x", 3), make("x", 1))})
        assert snap.seqno("x") == 3
        assert snap.seqnos("x") == (3, 1)

    def test_rejects_empty_history(self):
        with pytest.raises(ValueError):
            HistorySnapshot({"x": ()})

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            HistorySnapshot({"x": (make("x", 1), make("x", 3))})

    def test_variables_sorted(self):
        snap = HistorySnapshot(
            {"y": (make("y", 1),), "x": (make("x", 1),)}
        )
        assert snap.variables == ("x", "y")

    def test_usable_in_sets(self):
        snap1 = HistorySnapshot({"x": (make("x", 3),)})
        snap2 = HistorySnapshot({"x": (make("x", 3),)})
        assert len({snap1, snap2}) == 1


class TestHistoryIsConsecutive:
    def test_consecutive(self):
        assert history_is_consecutive([make("x", 3), make("x", 2)])

    def test_gap(self):
        assert not history_is_consecutive([make("x", 3), make("x", 1)])

    def test_single_update_vacuous(self):
        assert history_is_consecutive([make("x", 9)])

    def test_empty_vacuous(self):
        assert history_is_consecutive([])

    def test_three_deep(self):
        assert history_is_consecutive([make("x", 5), make("x", 4), make("x", 3)])
        assert not history_is_consecutive([make("x", 5), make("x", 4), make("x", 2)])
