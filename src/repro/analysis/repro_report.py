"""One-shot reproduction report: every experiment, one Markdown document.

``python -m repro report`` (or :func:`generate_report`) runs the full
experiment suite — all seven property tables, the domination and
maximality replays, and the availability sweep — and emits a Markdown
report with a PASS/FAIL verdict per artifact and an overall verdict.
``budget`` scales every trial count, so the same entry point serves a
30-second smoke check (``budget=0.1``) and a full run (``budget=1.0``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.experiments import (
    availability_experiment,
    domination_experiment,
    maximality_experiment,
)
from repro.analysis.tables import EXPECTED_GRIDS, build_table, render_table
from repro.engine.core import TrialEngine

__all__ = ["SectionResult", "ReproductionReport", "generate_report"]


@dataclass(frozen=True)
class SectionResult:
    """One experiment's outcome inside the report."""

    name: str
    passed: bool
    body: str
    seconds: float


@dataclass
class ReproductionReport:
    sections: list[SectionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(section.passed for section in self.sections)

    def to_markdown(self) -> str:
        lines = [
            "# Reproduction report — Replicated condition monitoring "
            "(PODC 2001)",
            "",
            f"Overall: **{'PASS' if self.passed else 'FAIL'}** "
            f"({sum(s.passed for s in self.sections)}/{len(self.sections)} "
            "artifacts agree with the paper)",
            "",
        ]
        for section in self.sections:
            status = "PASS" if section.passed else "FAIL"
            lines.append(f"## {section.name} — {status} ({section.seconds:.1f}s)")
            lines.append("")
            lines.append("```")
            lines.append(section.body)
            lines.append("```")
            lines.append("")
        return "\n".join(lines)


def _scaled(value: int, budget: float, minimum: int = 5) -> int:
    return max(minimum, int(value * budget))


def generate_report(
    budget: float = 1.0, base_seed: int = 20010800, processes: int | str = 1
) -> ReproductionReport:
    """Run every experiment at ``budget`` × the default trial counts.

    ``processes > 1`` (or ``"auto"``) fans the table trials out over one
    persistent :class:`~repro.engine.core.TrialEngine` — the same worker
    pool serves all seven tables — with identical results, wall-clock
    divided.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    report = ReproductionReport()

    # Property tables.
    single_trials = _scaled(150, budget)
    multi_trials = _scaled(60, budget)
    # The ✗ completeness witnesses in historical multi-variable rows are
    # the rarest events in the suite; keep a healthy floor even at tiny
    # budgets so the report doesn't flake.
    completeness_trials = _scaled(120, budget, minimum=40)
    with TrialEngine(processes=processes) as engine:
        for table_id in EXPECTED_GRIDS:
            start = time.perf_counter()
            multi = table_id in ("table3", "ad6", "ad1-multi")
            result = build_table(
                table_id,
                trials=multi_trials if multi else single_trials,
                n_updates=20 if multi else 40,
                base_seed=base_seed,
                completeness_trials=completeness_trials if multi else 0,
                completeness_n_updates=8,
                engine=engine,
            )
            report.sections.append(
                SectionResult(
                    name=f"Property grid: {table_id}",
                    passed=result.matches_paper(),
                    body=render_table(result),
                    seconds=time.perf_counter() - start,
                )
            )

    # Domination (Theorems 6 and 8).
    start = time.perf_counter()
    dom = domination_experiment(trials=_scaled(400, budget))
    dom_lines = []
    dom_ok = True
    for name, outcome in dom.items():
        dom_lines.append(
            f"{name}: violations={outcome.violations} "
            f"strict={outcome.strict_witnesses} streams={outcome.streams}"
        )
        dom_ok = dom_ok and outcome.dominates and outcome.strictly_dominates
    report.sections.append(
        SectionResult(
            "Domination (Thm 6, Thm 8)",
            dom_ok,
            "\n".join(dom_lines),
            time.perf_counter() - start,
        )
    )

    # Maximality (Theorems 5, 7, 9).
    start = time.perf_counter()
    maxim = maximality_experiment(trials=_scaled(400, budget))
    max_lines = []
    max_ok = True
    for name, outcome in maxim.items():
        max_lines.append(
            f"{name}: discards={outcome.discards} "
            f"unjustified={outcome.unjustified}"
        )
        max_ok = max_ok and outcome.maximal and outcome.discards > 0
    report.sections.append(
        SectionResult(
            "Maximality (Thm 5, Thm 7, Thm 9)",
            max_ok,
            "\n".join(max_lines),
            time.perf_counter() - start,
        )
    )

    # Availability (Figure-1 motivation).
    start = time.perf_counter()
    points = availability_experiment(
        loss_probs=(0.0, 0.2, 0.4), replications=(1, 2, 3),
        trials=_scaled(40, budget),
    )
    by_key = {(p.front_loss, p.replication): p for p in points}
    avail_lines = [
        f"loss={p.front_loss} CEs={p.replication} "
        f"miss={p.mean_miss_fraction:.3f}"
        for p in points
    ]
    avail_ok = all(
        by_key[(loss, 2)].mean_miss_fraction
        <= by_key[(loss, 1)].mean_miss_fraction
        for loss in (0.0, 0.2, 0.4)
    )
    report.sections.append(
        SectionResult(
            "Availability (Figure-1 motivation)",
            avail_ok,
            "\n".join(avail_lines),
            time.perf_counter() - start,
        )
    )

    return report
