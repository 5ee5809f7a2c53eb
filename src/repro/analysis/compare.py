"""Side-by-side algorithm comparison on a single arrival stream.

Given one run's arrival stream, replay it through every applicable AD
algorithm and show, alert by alert, who displays what — the fastest way
to *see* the tradeoffs of Tables 1–3 on a concrete trace::

    arrival        AD-1  AD-2  AD-3  AD-4
    a(2x,1x)        ✓     ✓     ✓     ✓
    a(3x,1x)        ✓     ✓     ✗     ✗     <- conflicts with a(2x,1x)
    a(4x,3x)        ✓     ✓     ✓     ✗

Exposed on the CLI as ``python -m repro compare``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.components.system import RunResult
from repro.core.alert import Alert
from repro.core.condition import Condition
from repro.displayers.base import ADAlgorithm
from repro.displayers.registry import make_ad
from repro.props.report import evaluate_run

__all__ = ["ComparisonRow", "AlgorithmComparison", "compare_algorithms", "compare_run"]


@dataclass(frozen=True)
class ComparisonRow:
    """One arriving alert and each algorithm's verdict."""

    alert: Alert
    verdicts: dict[str, bool]


@dataclass(frozen=True)
class AlgorithmComparison:
    """Full comparison: per-arrival verdicts plus per-algorithm summaries."""

    algorithms: tuple[str, ...]
    rows: tuple[ComparisonRow, ...]
    #: algorithm -> (displayed count, properties summary or None)
    summaries: dict[str, dict]

    def render(self) -> str:
        width = max((len(r.alert.shorthand()) for r in self.rows), default=10)
        header = f"{'arrival':<{width + 2}}" + "".join(
            f"{name:>7}" for name in self.algorithms
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            cells = "".join(
                f"{'✓' if row.verdicts[name] else '·':>7}"
                for name in self.algorithms
            )
            lines.append(f"{row.alert.shorthand():<{width + 2}}{cells}")
        lines.append("-" * len(header))
        displayed = "".join(
            f"{self.summaries[name]['displayed']:>7}" for name in self.algorithms
        )
        lines.append(f"{'displayed':<{width + 2}}{displayed}")
        for prop in ("ordered", "complete", "consistent"):
            marks = []
            for name in self.algorithms:
                verdict = self.summaries[name]["properties"]
                mark = "?"
                if verdict is not None:
                    value = verdict.get(prop)
                    mark = "?" if value is None else ("✓" if value else "✗")
                marks.append(f"{mark:>7}")
            lines.append(f"{prop:<{width + 2}}{''.join(marks)}")
        return "\n".join(lines)


def compare_algorithms(
    condition: Condition,
    arrivals: Sequence[Alert],
    algorithm_names: Sequence[str],
    traces: Sequence[Sequence] | None = None,
) -> AlgorithmComparison:
    """Replay one arrival stream through several fresh algorithms.

    When ``traces`` (the per-CE received updates) are supplied, each
    algorithm's output is also scored on the three properties.
    """
    instances: dict[str, ADAlgorithm] = {
        name: make_ad(name, condition) for name in algorithm_names
    }
    rows = []
    for alert in arrivals:
        verdicts = {
            name: instance.offer(alert) for name, instance in instances.items()
        }
        rows.append(ComparisonRow(alert, verdicts))
    summaries = {}
    for name, instance in instances.items():
        properties = None
        if traces is not None:
            properties = evaluate_run(
                condition, traces, [a.identity() for a in instance.output]
            ).summary
        summaries[name] = {
            "displayed": len(instance.output),
            "properties": properties,
        }
    return AlgorithmComparison(tuple(algorithm_names), tuple(rows), summaries)


def compare_run(
    run: RunResult, algorithm_names: Sequence[str] | None = None
) -> AlgorithmComparison:
    """Compare algorithms on a completed run's actual arrival stream."""
    if algorithm_names is None:
        if len(run.condition.variables) == 1:
            algorithm_names = ("AD-1", "AD-2", "AD-3", "AD-4")
        else:
            algorithm_names = ("AD-1", "AD-5", "AD-6")
    return compare_algorithms(
        run.condition, run.ad_arrivals, algorithm_names, traces=run.received
    )
