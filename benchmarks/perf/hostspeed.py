"""Host-speed probe: how fast is the measured vCPU *right now*?

The sandbox this benchmark was defined on shares physical cores with
other guests: a fixed pure-Python loop pinned to one vCPU takes anywhere
between 1.0x and 1.5x its quiet-host time, drifting over seconds, with
no correlation between the two vCPUs and with CPU time tracking wall
time (so it is contention on the core, not descheduling).  Medians over
a 20 s run cannot average that away — back-to-back runs of identical
work differed by 25-35% — so every timed interval is instead divided by
a host-speed index sampled *while it ran*.

A probe process pinned to the same vCPU as the measured process runs a
fixed kernel (allocation, dict/tuple, sort, arithmetic — the instruction
mix of the monitored code, not a tight ALU loop, which tracked the
slowdown only half as well) about forty times a second and records the
thread CPU time each slice took.  ``slice / REFERENCE_SLICE_S`` is the
kernel's slowdown at that instant.  The monitored code slows less than
the kernel does — regressing the log time of 363 identical Table-3 passes
on the log slice time, across a calm and a loaded quarter of an hour,
gave slope 0.81 (r = 0.96) — so the program's slowdown is taken as
``kernel slowdown ** SENSITIVITY``.  An interval's effective duration is
its wall time, minus the CPU the probe itself took from the shared vCPU,
divided by the mean program slowdown over the interval.  On those 363
passes that brought the spread (IQR/median) of 10-pass medians from 19%
to 4%.  Reported times are therefore in seconds of the reference host in
its quiet state; ``harness.host_speed_index`` says how far this run's
host was from it.

The probe never touches the program under test, and it is the only thing
besides the program that runs on the measured vCPU.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time

__all__ = ["HostSpeed", "REFERENCE_SLICE_S", "SENSITIVITY", "available_cpus", "pin"]

#: Thread CPU seconds one ``_kernel()`` slice takes on the reference host
#: in a calm period (median of 6 000 slices on the host the benchmark was
#: defined on).  A constant on purpose: normalising by anything measured
#: in the same run would cancel the very drift the index exists to remove.
REFERENCE_SLICE_S = 0.00115
#: d log(program time) / d log(slice time), fitted as described above.
SENSITIVITY = 0.8

_KERNEL_ITEMS = 1400
_SLEEP_S = 0.022


class _Cell:
    __slots__ = ("name", "seqno", "value")

    def __init__(self, name: str, seqno: int, value: float) -> None:
        self.name = name
        self.seqno = seqno
        self.value = value

    def key(self) -> tuple[str, int]:
        return (self.name, self.seqno)


def _kernel() -> float:
    """One fixed slice of interpreter work; never changes with the repo."""
    table: dict[tuple[str, int], _Cell] = {}
    picked: list[tuple[float, tuple[str, int]]] = []
    acc = 0
    for i in range(_KERNEL_ITEMS):
        cell = _Cell(f"v{i % 7}", i, i * 0.5)
        key = cell.key()
        table[key] = cell
        acc += i * i
        if i % 3 == 0:
            picked.append((cell.value, key))
    picked.sort(reverse=True)
    total = 0.0
    for _, key in picked:
        total += table[key].value
    return total + acc


def available_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def pin(pid: int, cpu: int) -> None:
    os.sched_setaffinity(pid, {cpu})


def _probe_main(cpu: int) -> int:
    """Child entry point: sample until SIGTERM (or until orphaned)."""
    pin(0, cpu)
    parent = os.getppid()
    stop = False

    def _on_term(signum, frame) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    samples: list[tuple[float, float]] = []
    for _ in range(20):  # warm the allocator and the code object
        _kernel()
    print("ready", flush=True)
    while not stop and os.getppid() == parent:
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        _kernel()
        cpu1 = time.thread_time()
        samples.append(((wall0 + time.perf_counter()) / 2, cpu1 - cpu0))
        time.sleep(_SLEEP_S)
    json.dump(samples, sys.stdout)
    return 0


class HostSpeed:
    """Owns the probe process; turns wall intervals into effective ones."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self._proc: subprocess.Popen | None = None
        self._times: list[float] = []
        self._slices: list[float] = []

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu)],
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.abort()
            raise RuntimeError("host-speed probe did not start")

    def stop(self) -> None:
        """Stop sampling and load the samples (idempotent)."""
        if self._proc is None:
            return
        self._proc.send_signal(signal.SIGTERM)
        out, _ = self._proc.communicate(timeout=30)
        self._proc = None
        samples = json.loads(out)
        self._times = [t for t, _ in samples]
        self._slices = [s for _, s in samples]
        if not samples:
            raise RuntimeError("host-speed probe recorded no samples")

    def abort(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.communicate()
            self._proc = None

    # -- queries (after stop) ------------------------------------------------
    def _window(self, start: float, end: float) -> range:
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        if hi - lo >= 2:
            return range(lo, hi)
        # Interval shorter than the sampling period: nearest neighbours.
        mid = bisect.bisect_left(self._times, (start + end) / 2)
        lo = max(0, min(mid - 1, len(self._times) - 2))
        return range(lo, min(len(self._times), lo + 2))

    def factor(self, start: float, end: float) -> float:
        """Mean reciprocal program slowdown over ``[start, end]``."""
        window = self._window(start, end)
        return statistics.fmean(
            (REFERENCE_SLICE_S / self._slices[i]) ** SENSITIVITY for i in window
        )

    def effective(self, start: float, end: float) -> float:
        """Reference-host seconds of a CPU-bound interval on the probed vCPU."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        stolen = sum(self._slices[lo:hi])
        return max(end - start - stolen, 0.0) * self.factor(start, end)

    def index(self) -> float:
        """Median program slowdown over the run (1.0 = the reference host)."""
        return (statistics.median(self._slices) / REFERENCE_SLICE_S) ** SENSITIVITY

    def duty(self) -> float:
        """Share of the probed vCPU the probe itself consumed."""
        span = self._times[-1] - self._times[0]
        return sum(self._slices) / span if span > 0 else 0.0


if __name__ == "__main__":
    raise SystemExit(_probe_main(int(sys.argv[1])))
