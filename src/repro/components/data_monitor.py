"""Data Monitor — the sensor node (Section 2).

A DM tracks one real-world variable and broadcasts a data update —
``u(varname, seqno, value)`` with consecutive seqnos starting at 1 and a
full snapshot value — to every subscribed CE, each over its own front
link.  A sensor monitoring two targets is modelled as two DMs (the paper's
convention), so this class is strictly one-variable.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.update import Update
from repro.simulation.kernel import Kernel
from repro.simulation.network import Link
from repro.simulation.node import Node

__all__ = ["DataMonitor"]


class DataMonitor(Node):
    """Broadcasts a scheduled sequence of readings for one variable.

    Parameters
    ----------
    kernel, name:
        Simulation binding.
    varname:
        The monitored variable's identifier.
    readings:
        ``(time, value)`` pairs, in non-decreasing time order — the
        variable's trajectory.  Each reading becomes one update with the
        next consecutive seqno.
    crash_schedule:
        Optional downtime windows for the sensor itself.  A reading whose
        broadcast instant falls inside a window is never taken: no update
        is built, no seqno consumed — the sent sequence U stays gap-free,
        it is simply shorter (ground truth shrinks with the sensor).
    """

    def __init__(
        self,
        kernel: Kernel,
        varname: str,
        readings: Sequence[tuple[float, float]],
        name: str | None = None,
        crash_schedule=None,
    ) -> None:
        super().__init__(kernel, name or f"DM-{varname}")
        times = [t for t, _ in readings]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("readings must be in non-decreasing time order")
        self.varname = varname
        self.crash_schedule = crash_schedule
        self.suppressed = 0
        self._readings = list(readings)
        self._links: list[Link] = []
        self._next_seqno = 1
        self._sent: list[Update] = []
        self._sent_log: list[tuple[float, Update]] = []

    @property
    def sent(self) -> tuple[Update, ...]:
        """The update sequence U this DM has broadcast so far."""
        return tuple(self._sent)

    @property
    def sent_log(self) -> tuple[tuple[float, Update], ...]:
        """(broadcast time, update) pairs, for ground-truth interleaving."""
        return tuple(self._sent_log)

    def attach(self, link: Link) -> None:
        """Subscribe a CE by adding its front link to the broadcast set."""
        self._links.append(link)

    def start(self) -> None:
        """Schedule every reading's broadcast on the kernel."""
        for time, value in self._readings:
            self.kernel.schedule_at(
                time,
                lambda v=value: self._broadcast(v),
                note=f"{self.name} reading",
            )

    def _broadcast(self, value: float) -> None:
        if self.crash_schedule is not None and not self.crash_schedule.is_up(
            self.kernel.now
        ):
            self.suppressed += 1
            if self.kernel.tracer is not None:
                self.kernel.tracer.emit(
                    self.kernel.now, "dm", "suppressed", self.name,
                    value=value, reason="crashed",
                )
            return
        update = Update(self.varname, self._next_seqno, value)
        self._next_seqno += 1
        self._sent.append(update)
        self._sent_log.append((self.kernel.now, update))
        for link in self._links:
            link.send(update)

    def receive(self, message) -> None:  # pragma: no cover - DMs only send
        raise RuntimeError("Data Monitors do not receive messages")
