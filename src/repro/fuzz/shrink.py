"""Full-simulator witness shrinking (generalized delta debugging).

:func:`repro.analysis.witness.shrink_counterexample` minimizes a
violation in a *replay model* — CE-received traces and a merge order.
This module instead delta-debugs the violating **input** at the full
simulator level: each candidate reduction re-runs the complete pipeline
(workload → DMs → lossy links → CEs → back links → AD → property
checkers) and is kept only if the *same* target property is still
violated.  The reduction catalog:

* drop a reading (``n_updates`` − 1, down to a floor),
* drop a CE replica (``replication`` − 1, down to 1),
* zero the front-link loss override, or halve it,
* drop the membership config (back to static membership),
* move one knob of the fault profile or the membership config toward
  its inert value (:meth:`~repro.knobs.KnobSet.inert` — crash rates and
  loss probabilities to 0, the delay-spike factor to 1, membership
  knobs to their defaults) as its :mod:`repro.knobs` kind says: snap to
  it or halve the distance,

with a binary-descent accelerator on ``n_updates`` before the greedy
passes.  The result is **1-minimal over the catalog**: no single
remaining step preserves the violation.  Shrinking is a pure function of
``(spec, target)`` — no RNG is consumed — so it is idempotent, and
shrinking a spec reconstructed from its recorded trace yields the
bit-identical result (pinned by the Hypothesis suite).

The shrunk spec is finalized into a replayable witness: a
``repro.trace/1`` recording (:func:`~repro.observability.replay.record_trial`)
plus a paper-style :class:`~repro.analysis.witness.Counterexample`
extracted from the shrunk run.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

from repro.analysis.witness import Counterexample, counterexample_from_run, violates
from repro.engine.spec import TrialSpec
from repro.knobs import Kind
from repro.observability.replay import RecordedTrace, record_trial

__all__ = ["ShrinkResult", "shrink_spec"]

#: Below this distance from a field's inert value, snap to it (floats
#: halve forever; the simulator cannot tell 1e-7 from 0 anyway).
_EPSILON = 1e-6


@dataclass(frozen=True)
class ShrinkResult:
    """A 1-minimal, bit-replayable witness of one property violation."""

    #: The minimized input (collection flags stripped).
    spec: TrialSpec
    target: str
    #: Paper-style counterexample extracted from the shrunk run.
    counterexample: Counterexample
    #: Replayable ``repro.trace/1`` recording of the shrunk run.
    trace: RecordedTrace
    #: Simulator runs the shrink spent (cache misses only).
    attempts: int
    #: Greedy passes until the 1-minimal fixpoint.
    passes: int

    def describe(self) -> str:
        spec = self.spec
        lines = [
            f"shrunk witness: {spec.matrix}/{spec.row} {spec.algorithm} "
            f"seed={spec.seed} n_updates={spec.n_updates} "
            f"replication={spec.replication}"
            + ("" if spec.front_loss is None else f" front_loss={spec.front_loss:g}")
            + ("" if spec.faults is None else " (faults attached)")
            + ("" if spec.membership is None else " (membership attached)"),
            f"({self.attempts} shrink runs, {self.passes} passes)",
            self.counterexample.describe(),
        ]
        return "\n".join(lines)


def _moves(kind: Kind, value, inert) -> Iterator:
    """The values one knob may shrink to, nearest the inert one first."""
    if kind.shrink == "snap":
        if value != inert:
            yield inert
    elif abs(value - inert) >= _EPSILON:  # "halve"
        yield inert
        if kind.cast is int:
            yield value - 1
        else:
            halved = inert + (value - inert) / 2
            if abs(halved - inert) >= _EPSILON:  # else the snap covers it
                yield halved


def _knob_steps(spec: TrialSpec, attr: str) -> Iterator[TrialSpec]:
    """Drop the spec's ``attr`` knob set, then move one knob at a time.

    Dropping first asks the cheapest question — does the violation need
    membership at all? — and the moves then normalize a
    surviving config, so witnesses from different fuzz paths converge on
    the same canonical knobs.  A fault profile is not dropped whole: it
    becomes ``None`` (:meth:`~repro.faults.plan.FaultProfile.or_none`)
    as its last active knob reaches its inert value.
    """
    config = getattr(spec, attr)
    if config is None:
        return
    faults = attr == "faults"
    if not faults:
        yield replace(spec, **{attr: None})
    for name, kind in config.knobs():
        for value in _moves(kind, getattr(config, name), config.inert(name)):
            moved = config.with_value(name, value)
            yield replace(spec, **{attr: moved.or_none() if faults else moved})


def _candidates(spec: TrialSpec, min_updates: int) -> Iterator[TrialSpec]:
    """Single-step reductions of ``spec``, in deterministic order."""
    if spec.n_updates > min_updates:
        yield replace(spec, n_updates=spec.n_updates - 1)
    if spec.replication > 1:
        yield replace(spec, replication=spec.replication - 1)
    if spec.front_loss is None:
        # Make the implicit scenario loss explicit and zero — the
        # "remove all link nondeterminism" step.
        yield replace(spec, front_loss=0.0)
    elif spec.front_loss > _EPSILON:
        yield replace(spec, front_loss=0.0)
        halved = spec.front_loss / 2
        if halved > _EPSILON:
            yield replace(spec, front_loss=halved)
    for attr in ("faults", "membership"):
        yield from _knob_steps(spec, attr)


def shrink_spec(
    spec: TrialSpec,
    target: str,
    min_updates: int = 2,
    max_passes: int = 40,
) -> ShrinkResult:
    """Delta-debug a violating trial spec down to a 1-minimal witness.

    ``spec`` must violate ``target`` under full simulation (raises
    ``ValueError`` otherwise — shrinking a non-violation would "succeed"
    vacuously and hide fuzzer false positives).
    """
    spec = spec.bare()
    cache: dict[TrialSpec, bool] = {}
    attempts = 0

    def still_violates(candidate: TrialSpec) -> bool:
        nonlocal attempts
        cached = cache.get(candidate)
        if cached is not None:
            return cached
        attempts += 1
        verdict = violates(candidate.execute(), target)
        cache[candidate] = verdict
        return verdict

    if not still_violates(spec):
        raise ValueError(
            f"spec does not violate {target!r}; nothing to shrink"
        )

    # Accelerator: binary descent on the reading count before the greedy
    # 1-minimal passes — one run per halving instead of one per reading.
    while spec.n_updates > min_updates:
        candidate = replace(
            spec, n_updates=max(min_updates, spec.n_updates // 2)
        )
        if candidate.n_updates == spec.n_updates or not still_violates(candidate):
            break
        spec = candidate

    passes = 0
    improved = True
    while improved and passes < max_passes:
        improved = False
        passes += 1
        restart = True
        while restart:
            restart = False
            for candidate in _candidates(spec, min_updates):
                if still_violates(candidate):
                    spec = candidate
                    improved = True
                    restart = True
                    break

    counterexample = counterexample_from_run(spec.run(), target=target)
    assert counterexample is not None  # still_violates(spec) held above
    return ShrinkResult(
        spec=spec,
        target=target,
        counterexample=counterexample,
        trace=record_trial(spec),
        attempts=attempts,
        passes=passes,
    )
