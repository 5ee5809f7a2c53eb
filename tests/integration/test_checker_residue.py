"""How much of Table 3 reaches the checkers' second layers.

AD-5's output is ordered, and an ordered A provably has an acyclic
precedence graph — so on the paper's Table-3 grid the consistency graph
is never built; and the completeness residue is a walk over the
interleaving grid, so no search explores more states than its grid has
points.  Both are properties of the checkers on *these inputs*, observed
here rather than assumed.
"""

import math

import repro.props.consistency as consistency
import repro.props.report as report
from repro.engine import plan_table


def test_table3_never_builds_the_graph_and_searches_within_the_grid(monkeypatch):
    graph_calls = []
    searches = []
    real_search = report.check_completeness_multi

    def within_the_grid(alerts, condition, per_variable, limit):
        grid = math.prod(len(run) + 1 for run in per_variable.values())
        result = real_search(alerts, condition, per_variable, limit=grid)
        searches.append(result)
        return result

    monkeypatch.setattr(
        consistency, "_precedence_cycle",
        lambda *args: graph_calls.append(args),
    )
    monkeypatch.setattr(report, "check_completeness_multi", within_the_grid)

    plan = plan_table("table3", trials=20)
    reports = [spec.execute() for spec in plan.specs]

    assert graph_calls == []
    assert all(r.consistent is not None for r in reports)
    # The n=8 half of the plan is checked for completeness, the n=30 half
    # is over the interleaving limit and skipped.
    assert len(searches) == len(plan.specs) // 2
    assert not any(result.undecided for result in searches)
    assert {bool(result) for result in searches} == {True, False}
