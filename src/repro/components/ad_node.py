"""Alert Displayer node (Section 2).

Collects the interleaved alert arrival stream from all CEs — the input to
the merge/filter function M of Appendix B — and runs one of the AD
filtering algorithms over it.  The node records both the raw arrival
order (for domination replays and debugging) and the displayed output A.
"""

from __future__ import annotations

from repro.core.alert import Alert
from repro.displayers.base import ADAlgorithm
from repro.simulation.kernel import Kernel
from repro.simulation.node import Node

__all__ = ["ADNode"]


class ADNode(Node):
    """The user's alert display, with a pluggable filtering algorithm.

    The algorithm decides on each arrival's identity key
    (:meth:`~repro.displayers.base.ADAlgorithm.decide`), as the array
    kernel's AD does; the node keeps the arrivals and which of them were
    displayed.
    """

    def __init__(self, kernel: Kernel, name: str, algorithm: ADAlgorithm) -> None:
        super().__init__(kernel, name)
        self.algorithm = algorithm
        self._arrivals: list[Alert] = []
        self._arrival_times: list[float] = []
        self._shown: list[int] = []

    @property
    def arrivals(self) -> tuple[Alert, ...]:
        """Every alert that reached the AD, in arrival (interleaved) order."""
        return tuple(self._arrivals)

    @property
    def arrival_times(self) -> tuple[float, ...]:
        """Simulated arrival time of each alert, aligned with ``arrivals``."""
        return tuple(self._arrival_times)

    @property
    def shown(self) -> tuple[int, ...]:
        """The index in ``arrivals`` of each displayed alert, in order."""
        return tuple(self._shown)

    @property
    def displayed(self) -> tuple[Alert, ...]:
        """The final alert sequence A shown to the user."""
        return tuple([self._arrivals[index] for index in self._shown])

    def receive(self, message) -> None:
        if not isinstance(message, Alert):
            raise TypeError(f"{self.name} expected an Alert, got {type(message)!r}")
        index = len(self._arrivals)
        self._arrivals.append(message)
        self._arrival_times.append(self.kernel.now)
        key = message.identity()
        tracer = self.kernel.tracer
        if tracer is None:
            if self.algorithm.decide(key):
                self._shown.append(index)
            return
        tracer.emit(
            self.kernel.now, "ad", "arrive", self.name, alert=str(message)
        )
        # Algorithms only explain rejections, and a rejected alert leaves
        # filter state untouched, so asking after a False decide() is exact.
        if self.algorithm.decide(key):
            self._shown.append(index)
            tracer.emit(
                self.kernel.now, "ad", "display", self.name, alert=str(message)
            )
        else:
            tracer.emit(
                self.kernel.now, "ad", "filter", self.name,
                alert=str(message),
                reason=self.algorithm.rejection_reason(key),
            )
