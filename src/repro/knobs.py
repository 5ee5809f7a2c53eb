"""Knob sets: all-scalar configs whose fields each declare their kind.

:class:`~repro.faults.plan.FaultProfile` and
:class:`~repro.membership.config.MembershipConfig` ride on a
:class:`~repro.engine.spec.TrialSpec` and describe a run's fault and
recovery surface; :class:`~repro.sharding.ring.ShardConfig` names the
ring a tenant population is partitioned over.  Each of their fields is
declared with :func:`knob`, which puts a :class:`Kind` in the field's
metadata, and everything that treats a field as "a rate" or "a count"
reads that one declaration: the constructor's domain check, the
clamping setter (:meth:`KnobSet.with_value`) and the value the shrinker
moves a knob toward (:meth:`KnobSet.inert`).

Metadata rather than fields: a kind adds no dataclass field, so
``asdict``, ``==``, ``hash``, pickling and the JSON a trace or feed
header carries are those of a plain scalar dataclass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import Any, Callable

__all__ = ["Kind", "KnobSet", "knob"]


@dataclass(frozen=True)
class Kind:
    """What one kind of knob accepts, clamps to and shrinks toward."""

    #: ``with_value`` converts with this first — ``int`` makes a count,
    #: ``str`` a choice among ``choices``; ``None`` keeps the value's
    #: own type, so a fault knob set to ``0`` stores the int ``0``.
    cast: Callable[[Any], Any] | None = None
    #: The values a ``str`` kind accepts.
    choices: tuple = ()
    #: ... then clamps into ``[floor, cap]``.
    floor: float = 0.0
    cap: float = math.inf
    #: The constructor rejects a value below ``least`` (at or below it
    #: when ``strict``) — looser than the clamp where a value outside it
    #: is still meaningful (``materialize`` clamps probabilities itself).
    least: float = 0
    strict: bool = False
    #: The value that switches the knob off; ``None``: the field's default.
    inert: Any = None
    #: How the shrinker moves the knob: ``"snap"`` to its inert value;
    #: ``"halve"``: snap, then halve the distance (a count steps down by
    #: one).
    shrink: str = "snap"

    def clamp(self, value: Any) -> Any:
        if self.cast is not None:
            value = self.cast(value)
        if self.cast is str:
            return value
        return min(max(value, self.floor), self.cap)

    def check(self, name: str, value: Any) -> None:
        """Raise ``ValueError`` naming ``name`` unless ``value`` is in
        this kind's domain."""
        if self.cast is str:
            if value not in self.choices:
                raise ValueError(
                    f"{name} must be one of {self.choices}, got {value!r}"
                )
        elif not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        elif self.cast is int and value != int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        elif value <= self.least if self.strict else value < self.least:
            bound = ">" if self.strict else ">="
            raise ValueError(f"{name} must be {bound} {self.least}, got {value!r}")


def knob(default: Any, kind: Kind) -> Any:
    """A dataclass field defaulting to ``default``, declared as ``kind``."""
    return field(default=default, metadata={"kind": kind})


class KnobSet:
    """Mixin for a frozen dataclass whose every field is a :func:`knob`:
    construction checks each value against its kind."""

    def __post_init__(self) -> None:
        for name, kind in self.knobs():
            kind.check(name, getattr(self, name))

    @classmethod
    @cache
    def knobs(cls) -> tuple[tuple[str, Kind], ...]:
        """``(name, kind)`` of every field, in declaration order."""
        return tuple((f.name, f.metadata["kind"]) for f in fields(cls))

    @classmethod
    def inert(cls, name: str) -> Any:
        """The value the shrinker moves ``name`` toward: its kind's inert
        value, or the field's default for a kind without one."""
        declared = cls.__dataclass_fields__[name]
        inert = declared.metadata["kind"].inert
        return declared.default if inert is None else inert

    def with_value(self, name: str, value: Any):
        """This config with ``name`` set to ``value`` clamped by its kind,
        so an arbitrary or halved value always constructs."""
        kind = self.__dataclass_fields__[name].metadata["kind"]
        return replace(self, **{name: kind.clamp(value)})


# -- FaultProfile: non-negative reals that keep the type they are given.
#: A rate or a mean time (repair, outage, spike length).
RATE = MEAN = Kind(inert=0, shrink="halve")
PROB = Kind(cap=1.0, inert=0, shrink="halve")
#: A recovery probability: 0 would make bursts permanent, 1 (instant
#: recovery) is what switches it off.
RECOVERY = replace(PROB, inert=1)
#: A delay multiplier: 1 is no amplification.
FACTOR = Kind(floor=1.0, inert=1, shrink="halve")
#: Extra copies, inert while the duplicate probability is 0.
COPIES = Kind(cast=int, floor=1, inert=1, shrink="halve")

# -- MembershipConfig: times stored as floats; the shrinker snaps every
# knob to its default.
INTERVAL = Kind(cast=float, floor=1e-3, strict=True)
DELAY = Kind(cast=float)
THRESHOLD = Kind(cast=int, floor=1, least=1)
SOURCE = Kind(cast=str, choices=("peer-then-log", "peer", "log", "none"))

# -- ShardConfig: a ring's size, for the multi-tenant path.
SHARDS = Kind(cast=int, floor=1, least=1)
