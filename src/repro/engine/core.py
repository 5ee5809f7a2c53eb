"""The persistent trial executor.

:class:`TrialEngine` owns a long-lived ``multiprocessing`` pool and maps
:class:`~repro.engine.spec.TrialSpec` batches over it.  Compared with the
one-shot ``Pool`` the old ``run_trials`` spun up per call:

* the pool (and each worker's imported scenario matrices) is reused
  across batches — ``repro report`` submits seven tables to the same
  workers;
* specs are index-tagged and submitted through ``imap_unordered``, so a
  straggler trial never blocks completed chunks from returning; results
  are reassembled into spec order before returning;
* chunk sizes are bounded (:func:`default_chunksize`): large batches no
  longer degenerate into a handful of huge chunks whose slowest member
  sets the wall-clock.

``processes="auto"`` sizes the pool to the machine.  ``processes=1``
executes inline — no pool, no pickling.  :data:`INLINE_ENGINE` is that
engine, shared: the default of every ``engine=`` parameter, so a sweep
has one code path whether or not a pool is behind it.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable, Sequence
from multiprocessing import Pool

from repro.engine.spec import TrialSpec
from repro.props.report import PropertyReport, PropertyTally

__all__ = [
    "INLINE_ENGINE",
    "TrialEngine",
    "fold_tally",
    "resolve_processes",
    "default_chunksize",
    "DEFAULT_CHUNKS_PER_WORKER",
    "MAX_CHUNKSIZE",
]

logger = logging.getLogger(__name__)

#: Aim for this many chunks per worker so stragglers rebalance.
DEFAULT_CHUNKS_PER_WORKER = 4
#: Hard ceiling on chunk size: beyond this, amortization of per-chunk IPC
#: is negligible but tail imbalance keeps growing.
MAX_CHUNKSIZE = 32


def resolve_processes(processes: int | str) -> int:
    """Normalize a process-count knob: ``"auto"`` → CPU count, else int ≥ 1."""
    if processes == "auto":
        return max(1, os.cpu_count() or 1)
    count = int(processes)
    if count < 1:
        raise ValueError(f"processes must be >= 1 or 'auto', got {processes!r}")
    return count


def default_chunksize(n_specs: int, processes: int) -> int:
    """Bounded chunk size for ``n_specs`` trials over ``processes`` workers.

    Large enough to amortize submission overhead, small enough that each
    worker sees several chunks (load balancing) and no chunk exceeds
    :data:`MAX_CHUNKSIZE`.  The old ``len(specs) // (4 * processes)``
    rule had no ceiling: 10 000 specs on 2 workers meant 1250-trial
    chunks — one slow chunk idled half the pool for minutes.
    """
    if n_specs <= 0 or processes <= 1:
        return 1
    target = -(-n_specs // (DEFAULT_CHUNKS_PER_WORKER * processes))
    return max(1, min(MAX_CHUNKSIZE, target))


def _execute_indexed(item: tuple[int, TrialSpec]) -> tuple[int, PropertyReport]:
    index, spec = item
    return index, spec.execute()


class TrialEngine:
    """Reusable trial executor with a lazily created, persistent pool.

    Usage::

        with TrialEngine(processes="auto") as engine:
            reports = engine.run(specs)        # pool created here
            more = engine.run(other_specs)     # same workers reused
    """

    def __init__(
        self, processes: int | str = "auto", chunksize: int | None = None
    ) -> None:
        self.processes = resolve_processes(processes)
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.chunksize = chunksize
        self._pool: Pool | None = None

    def __enter__(self) -> "TrialEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self) -> Pool:
        if self._pool is None:
            logger.debug("starting trial pool with %d workers", self.processes)
            self._pool = Pool(processes=self.processes)
        return self._pool

    def run(self, specs: Iterable[TrialSpec]) -> list[PropertyReport]:
        """Execute ``specs``, returning reports in spec order.

        Workers consume index-tagged specs via ``imap_unordered``;
        reassembly by index restores submission order, so the output is
        independent of worker scheduling.
        """
        specs = list(specs)
        if not specs:
            return []
        if self.processes == 1:
            return [spec.execute() for spec in specs]
        if len(specs) == 1:
            # A pool round-trip costs more than the trial; run inline but
            # say so — the old code silently ignored `processes` here.
            logger.debug(
                "running 1 spec inline despite processes=%d", self.processes
            )
            return [specs[0].execute()]
        chunksize = self.chunksize or default_chunksize(
            len(specs), self.processes
        )
        logger.debug(
            "dispatching %d trials over %d workers (chunksize=%d)",
            len(specs),
            self.processes,
            chunksize,
        )
        pool = self._ensure_pool()
        results: list[PropertyReport | None] = [None] * len(specs)
        for index, report in pool.imap_unordered(
            _execute_indexed, enumerate(specs), chunksize=chunksize
        ):
            results[index] = report
        return results

    def run_tally(self, specs: Sequence[TrialSpec]) -> PropertyTally:
        """Execute ``specs`` and fold the reports into one PropertyTally."""
        return fold_tally(specs, self.run(specs))


def fold_tally(
    specs: Sequence[TrialSpec], reports: Sequence[PropertyReport]
) -> PropertyTally:
    """Fold spec-ordered reports into one tally, seeds as witnesses."""
    tally = PropertyTally()
    for spec, report in zip(specs, reports):
        tally.add(report, seed=spec.seed)
    return tally


#: The shared inline engine (``processes=1`` never owns a pool, so it
#: needs no ``close``): what every ``engine=`` parameter defaults to.
INLINE_ENGINE = TrialEngine(processes=1)
