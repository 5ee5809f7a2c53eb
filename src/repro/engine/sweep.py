"""One sweep: declared axes, a spec builder, columns and a named claim.

Every sweep of the repository has one shape: axes → one seed block per
grid point → the whole grid as one batch on a
:class:`~repro.engine.core.TrialEngine` → a fold per cell → a
fixed-width table → one claim over the cells.  A :class:`Sweep` declares
that shape as data, and the chaos, churn and quality sweeps
(:mod:`repro.faults.chaos`, :mod:`repro.quality.sweep`) and the loss and
replication ablations (:mod:`repro.analysis.sweeps`) are instances of it,
so they share this one fold, renderer and JSON document, and ``repro
sweep <name>`` reads its flags off the declared parameters.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import islice, product
from typing import Any

from repro.engine.core import INLINE_ENGINE, TrialEngine, fold_tally
from repro.engine.spec import TrialSpec
from repro.props.report import PropertyReport, PropertyTally

__all__ = ["Cell", "Column", "Param", "Sweep", "trial_mean"]


@dataclass(frozen=True)
class Param:
    """One setting of a sweep, with its default.  An *axis* names the
    point coordinate it sweeps in ``key`` and takes a list of values; a
    setting without ``key`` is a scalar knob of every cell."""

    name: str
    default: Any
    type: Callable[[str], Any] = float
    key: str | None = None
    #: The command-line flag, when it is not ``--`` + the dashed name.
    flag: str | None = None
    choices: Sequence[str] | None = None
    help: str | None = None


@dataclass(frozen=True)
class Column:
    """One value of a cell: how the fold reads it off the cell's tally and
    reports (``read=None``: a coordinate of the point), how the table
    prints it (``header=None``: not printed) and how many digits the JSON
    document keeps (``None``: all)."""

    name: str
    header: str | None = None
    width: int = 0
    #: The value's text, padding included; ``none`` is printed instead of
    #: a ``None`` value.
    text: str = "{}"
    none: str = ""
    read: Callable[[PropertyTally, Sequence[PropertyReport]], Any] | None = None
    digits: int | None = None


@dataclass(frozen=True)
class Cell:
    """The folded result of one grid point: its coordinates and the values
    of the sweep's columns.  ``cell[name]`` reads either."""

    point: dict[str, Any]
    values: dict[str, Any]

    def __getitem__(self, name: str) -> Any:
        return self.point[name] if name in self.point else self.values[name]


def trial_mean(values: Iterable[float], empty: float = 0.0) -> float:
    """The mean of one value per trial (``empty`` for no trials), summed
    left to right: ``sum`` rounds differently from Python 3.12 on, and the
    committed artifacts pin these digits."""
    total, count = 0.0, 0
    for value in values:
        total += value
        count += 1
    return total / count if count else empty


@dataclass(frozen=True)
class Sweep:
    """A sweep family as data; :meth:`run` folds one :class:`Cell` per
    grid point and :attr:`claim` judges the cells."""

    name: str
    help: str
    params: tuple[Param, ...]
    #: The cell's coordinates, in the order the spec builder takes them.
    point: tuple[str, ...]
    #: ``specs(**point, **knobs)``: the cell's trials in ascending-seed
    #: order, so a tally's first violating seed is the minimal one.
    specs: Callable[..., list[TrialSpec]]
    columns: tuple[Column, ...]
    claim: Callable[[Sequence[Cell]], bool]
    #: The claim's verdict line; ``{}`` becomes YES or NO.
    claim_line: str
    #: The grid points (coordinate dicts) for the settings, when they are
    #: not the product of the axes in declaration order.
    grid: Callable[[dict[str, Any]], Iterable[dict[str, Any]]] | None = None
    #: The settings the JSON document starts with; ``()``: the sweep
    #: writes no document.
    heading: tuple[str, ...] = ()
    #: Printed after the claim line, formatted with the settings.
    note: str | None = None

    def settings(self, **overrides: Any) -> dict[str, Any]:
        """Every declared setting: its default unless overridden."""
        unknown = set(overrides) - {param.name for param in self.params}
        if unknown:
            raise TypeError(f"sweep {self.name!r} has no setting {sorted(unknown)}")
        return {
            param.name: overrides.get(param.name, param.default)
            for param in self.params
        }

    def points(self, settings: dict[str, Any]) -> list[dict[str, Any]]:
        """The grid's points, in table order; an empty axis is refused by
        name."""
        axes = [param for param in self.params if param.key]
        for param in axes:
            if not len(settings[param.name]):
                raise ValueError(f"sweep axis {param.name!r} is empty")
        if self.grid is not None:
            coordinates = self.grid(settings)
        else:
            coordinates = (
                dict(zip((param.key for param in axes), values))
                for values in product(*(settings[param.name] for param in axes))
            )
        return [
            {key: coords[key] if key in coords else settings[key]
             for key in self.point}
            for coords in coordinates
        ]

    def run(
        self, engine: TrialEngine = INLINE_ENGINE, **overrides: Any
    ) -> list[Cell]:
        """Fold one cell per point.  The whole grid runs as one batch (not
        one per cell, so a pool never waits at a barrier for the slowest
        trial of each small cell); ``engine`` only changes where trials
        run (inline by default, or a pooled engine), never the cells."""
        settings = self.settings(**overrides)
        knobs = {
            param.name: settings[param.name]
            for param in self.params
            if param.key is None and param.name not in self.point
        }
        points = self.points(settings)
        grid = [self.specs(**point, **knobs) for point in points]
        reports = iter(engine.run([spec for cell in grid for spec in cell]))
        return [
            self.fold(point, cell, list(islice(reports, len(cell))))
            for point, cell in zip(points, grid)
        ]

    def fold(
        self,
        point: dict[str, Any],
        specs: Sequence[TrialSpec],
        reports: Sequence[PropertyReport],
    ) -> Cell:
        tally = fold_tally(specs, reports)
        return Cell(point, {
            column.name: column.read(tally, reports)
            for column in self.columns
            if column.read is not None
        })

    def render(self, cells: Sequence[Cell]) -> str:
        """Fixed-width text table, one line per cell."""
        shown = [column for column in self.columns if column.header is not None]
        lines = [" ".join(column.header.rjust(column.width) for column in shown)]
        for cell in cells:
            lines.append(" ".join(
                column.none if cell[column.name] is None
                else column.text.format(cell[column.name])
                for column in shown
            ))
        return "\n".join(lines)

    def document(self, cells: Sequence[Cell], settings: dict[str, Any]) -> dict:
        """The JSON document: heading settings, the claim's verdict under
        its name, and every cell's coordinates and values."""
        digits = {
            column.name: column.digits
            for column in self.columns
            if column.digits is not None
        }
        return {
            "bench": self.name,
            **{name: settings[name] for name in self.heading},
            self.claim.__name__: self.claim(cells),
            "cells": [
                {
                    name: round(value, digits[name]) if name in digits else value
                    for name, value in {**cell.point, **cell.values}.items()
                }
                for cell in cells
            ],
        }
