"""Differential: the folded verdicts against ``evaluate_run``.

:class:`~repro.props.fold.VerdictFold` takes a run's inputs as they
happen — each CE's updates in batches, settled at arbitrary points, the
displayed alerts in batches, the two sides interleaved at random — and
must end with the :class:`~repro.props.report.PropertyReport` that
:func:`~repro.props.report.evaluate_run` computes from the finished run:
equal result objects, witnesses and conflict sentences included.

Runs have one to three lossy CEs, conditions of degree 1–3 (compiled
and opaque, aggressive and conservative), updates delivered twice and
updates of a variable the condition does not read inside the CE
streams, and a displayed sequence
that is any selection of the CEs' alerts in any order — repeats, and
alerts of another condition name or of an extra variable, included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alert import Alert, make_alert
from repro.core.condition import (
    ExpressionCondition,
    PredicateCondition,
    c1,
    c2,
    c3,
    cm,
)
from repro.core.evaluator import ConditionEvaluator
from repro.core.expressions import H
from repro.core.update import Update
from repro.props.fold import VerdictFold
from repro.props.report import evaluate_run
from tests.conftest import keys_of


def _seqno_parity(h):
    return (h["x"][0].seqno + h["x"][-1].seqno) % 3 != 0


CONDITIONS = (
    c1(threshold=200.0),
    c2(delta=100.0),
    c3(delta=100.0),
    ExpressionCondition("rise3", H.x[0].value - H.x[-2].value > 100.0),
    PredicateCondition("parity", {"x": 2}, _seqno_parity),
    c2(delta=100.0).as_conservative(),
)


@st.composite
def runs(draw):
    """``(condition, traces, displayed)`` of one lossy single-variable run."""
    condition = draw(st.sampled_from(CONDITIONS))
    values = st.sampled_from((0.0, 150.0, 300.0, 450.0))
    sent = [
        Update("x", seqno, value)
        for seqno, value in enumerate(draw(st.lists(values, max_size=12)), 1)
    ]
    traces, alerts = [], []
    for index in range(draw(st.integers(1, 3))):
        trace = [u for u in sent if draw(st.integers(0, 3)) > 0]
        alerts.extend(
            ConditionEvaluator(condition, f"CE{index + 1}").ingest_all(trace)
        )
        if trace and draw(st.booleans()):
            # A delivered twice: the union keeps one, as the CE would
            # have refused the second.
            again = draw(st.integers(0, len(trace) - 1))
            trace.insert(again, trace[again])
        for seqno in range(1, draw(st.integers(0, 2)) + 1):
            trace.insert(
                draw(st.integers(0, len(trace))), Update("y", seqno, 300.0)
            )
        traces.append(trace)
    chosen = [a for a in alerts for _ in range(draw(st.integers(0, 2)))]
    stranger = draw(st.integers(0, 5))
    if stranger == 0 and alerts:
        chosen.append(Alert("other", draw(st.sampled_from(alerts)).histories))
    elif stranger == 1 and alerts:
        histories = draw(st.sampled_from(alerts)).histories
        chosen.append(make_alert(
            condition.name, {"x": histories["x"], "y": [Update("y", 1, 0.0)]}
        ))
    return condition, traces, draw(st.permutations(chosen))


def pieces(draw, items):
    """``items`` cut into consecutive (possibly empty) batches."""
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=4)))
    bounds = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=400, deadline=None)
@given(runs(), st.data())
def test_the_fold_ends_where_evaluate_run_does(run, data):
    condition, traces, displayed = run
    fold = VerdictFold(condition, len(traces))
    received = [pieces(data.draw, trace) for trace in traces]
    shown = pieces(data.draw, displayed)
    steps = [("receive", ce) for ce, batches in enumerate(received) for _ in batches]
    steps += [("display", None)] * len(shown)
    steps += [("settle", None)] * data.draw(st.integers(0, 4))
    for step, ce in data.draw(st.permutations(steps)):
        if step == "receive":
            fold.receive(ce, received[ce].pop(0))
        elif step == "display":
            fold.display([alert.identity() for alert in shown.pop(0)])
        else:
            fold.settle()
    report = fold.report()
    expected = evaluate_run(condition, traces, keys_of(displayed))
    assert report == expected
    assert report.summary == expected.summary


class TestWatermark:
    CONDITION = c2(delta=100.0)
    RUN = [Update("x", seqno, 150.0 * (seqno % 2)) for seqno in range(1, 6)]

    def test_holds_only_what_a_lagging_ce_can_still_fill(self):
        u = self.RUN
        fold = VerdictFold(self.CONDITION, 2)
        fold.receive(0, u)
        assert fold.held == 5  # queued, not yet settled
        fold.settle()
        assert fold.held == 5  # CE2 has nothing yet: any gap may still fill
        fold.receive(1, [u[0], u[2]])
        fold.settle()
        assert fold.held == 3  # 1 and 2 lie below CE2's tip; 3, 4, 5 wait
        fold.receive(1, [u[4]])
        fold.settle()
        assert fold.held == 1  # 5 is both tips: a tip itself always waits
        assert fold.report() == evaluate_run(
            self.CONDITION, [u, [u[0], u[2], u[4]]], []
        )
        assert fold.held == 0

    def test_a_ce_going_back_is_refused_at_settle(self):
        u = self.RUN
        fold = VerdictFold(self.CONDITION, 1)
        fold.receive(0, [u[2], u[0]])
        with pytest.raises(ValueError, match="not ordered"):
            fold.settle()

    def test_two_values_for_one_seqno_are_refused(self):
        u = self.RUN
        fold = VerdictFold(self.CONDITION, 2)
        fold.receive(0, [u[0], u[1]])
        fold.receive(1, [Update("x", 2, 999.0)])
        with pytest.raises(ValueError, match="conflicting updates for seqno 2"):
            fold.settle()

    def test_a_multi_variable_condition_is_refused(self):
        with pytest.raises(ValueError, match="single-variable"):
            VerdictFold(cm(), 2)
