"""Harness-side span tracing: time the calls *into* each layer.

Nothing under ``src/`` is instrumented.  The traced child replaces module
attributes (``repro.props.report.check_orderedness``,
``ConditionEvaluator.ingest`` …) with timing wrappers for the duration of
the traced pass and restores them afterwards; the untraced passes that
produce the end-to-end numbers never see a wrapper.

Two granularities:

* **coarse spans** (one trial, one feed, one shard) are kept individually
  with ``id``/``parent``/``start``/``end`` and written out as JSONL;
* **per-call entry points** (``ingest``, ``offer``, ``check_*`` …) are far
  too many to keep, so they fold into ``(name, parent name)`` aggregates:
  call count, busy seconds, and the part of that busy time covered by
  traced children.

A layer's *self time* is busy minus covered-by-children, so the self
times of everything under one coarse span add up to that span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Tracer"]

_ROOT = "harness"


class Tracer:
    def __init__(self) -> None:
        #: Coarse spans, in completion order.
        self.spans: list[dict[str, Any]] = []
        #: ``(name, parent name) -> [calls, busy seconds, child seconds]``.
        self.totals: dict[tuple[str, str], list[float]] = {}
        # Each frame: [name, enclosing coarse span id, child seconds].
        self._stack: list[list[Any]] = [[_ROOT, None, 0.0]]
        self._patches: list[tuple[Any, str, Any]] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------------
    def _close(self, frame: list[Any], elapsed: float) -> None:
        parent = self._stack[-1]
        parent[2] += elapsed
        key = (frame[0], parent[0])
        record = self.totals.get(key)
        if record is None:
            self.totals[key] = [1, elapsed, frame[2]]
        else:
            record[0] += 1
            record[1] += elapsed
            record[2] += frame[2]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A coarse span: kept individually and folded into the totals."""
        span_id = self._next_id
        self._next_id += 1
        frame = [name, span_id, 0.0]
        parent_id = self._stack[-1][1]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "parent": parent_id, "name": name,
                 "start": start, "end": end}
            )
            self._close(frame, end - start)

    def wrap(self, name: str, fn: Callable, *, coarse: bool = False) -> Callable:
        """``fn`` timed under ``name`` (an aggregate unless ``coarse``)."""
        if coarse:
            def traced_coarse(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return fn(*args, **kwargs)

            return traced_coarse

        stack = self._stack
        close = self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, stack[-1][1], 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                close(frame, elapsed)

        return traced

    # -- patching ------------------------------------------------------------
    def patch(
        self, owner: Any, attr: str, name: str, *, coarse: bool = False
    ) -> None:
        """Replace ``owner.attr`` with its timed wrapper until :meth:`unpatch`."""
        self.patch_with(owner, attr, lambda fn: self.wrap(name, fn, coarse=coarse))

    def patch_with(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(sum(r[0] for (n, _), r in self.totals.items() if n == name))

    def busy(self, name: str) -> float:
        return sum(r[1] for (n, _), r in self.totals.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(r[1] - r[2] for (n, _), r in self.totals.items() if n == name)

    def breakdown(self, under: str) -> list[tuple[str, int, float]]:
        """``(name, calls, self seconds)`` of ``under`` and all it covers,
        largest first; the self times sum to ``busy(under)``."""
        reached = {under}
        grew = True
        while grew:
            grew = False
            for name, parent in self.totals:
                if parent in reached and name not in reached:
                    reached.add(name)
                    grew = True
        rows = [(n, self.calls(n), self.self_time(n)) for n in reached]
        return sorted(rows, key=lambda row: -row[2])

    def write_jsonl(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({"kind": "span", **span}) + "\n")
            for (name, parent), (calls, busy, child) in sorted(self.totals.items()):
                out.write(json.dumps({
                    "kind": "aggregate", "name": name, "parent": parent,
                    "calls": int(calls), "busy_s": busy, "self_s": busy - child,
                }) + "\n")
