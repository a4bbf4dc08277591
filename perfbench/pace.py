"""Core-speed probe: how fast the benchmark's CPU runs, moment by moment.

The machine these runs share with other tenants changes speed by up to 40%
from one second to the next, and each CPU drifts on its own: two processes
on the two CPUs of one virtual machine read speeds that do not track each other.  So
the benchmark pins itself, and with it every process it starts, to one CPU,
and starts this file as a sidecar on the same CPU.  Every ``PERIOD_S`` the
sidecar wakes, runs a fixed block of interpreter work that never touches
the package, and writes the block's thread CPU time to its standard
output.  A reading is slow when the shared core is slow (and by a few
percent when the measured work is memory-bound and leaves the core's caches
cold; the README gives the check), so a measured interval is put at the reference speed by multiplying it with
``mean(NOMINAL_S / reading)`` over the readings inside it.  The sidecar
costs its CPU about 2% of the time, the same on every commit.

    python3 perfbench/pace.py    # sidecar: writes "ready", then one
                                 # "<time> <cpu seconds>" line per reading
                                 # until its standard input closes
"""

from __future__ import annotations

import bisect
import os
import select
import subprocess
import sys
import time
from contextlib import contextmanager

# Wake-up period of the sidecar, and the thread CPU time of one probe block at
# the reference speed: about the 5th percentile of readings on an idle 2-vCPU
# Intel Xeon virtual machine, its fast state.
PERIOD_S = 0.02
NOMINAL_S = 0.00035
# An interval shorter than a few periods borrows the readings nearest to it.
MIN_READINGS = 3

clock = time.monotonic  # CLOCK_MONOTONIC: one clock for every process


def probe_block() -> None:
    acc = 0
    for i in range(5_000):
        acc += i * i % 7


def sidecar() -> None:
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.thread_time()
        probe_block()
        out.write(f"{clock():.6f} {time.thread_time() - start:.7f}\n")
        out.flush()


def factor(readings, start: float, end: float) -> float:
    """Reference speed over the speed during ``[start, end]``, from
    ``(time, cpu seconds)`` readings in time order: the mean speed of the
    readings, since the work done in an interval is speed integrated over it."""
    lo = bisect.bisect_left(readings, start, key=lambda r: r[0])
    hi = bisect.bisect_right(readings, end, key=lambda r: r[0])
    if hi - lo < MIN_READINGS:
        around = readings[max(lo - MIN_READINGS, 0):hi + MIN_READINGS]
        near = sorted(around, key=lambda r: max(start - r[0], r[0] - end, 0.0))[:MIN_READINGS]
    else:
        near = readings[lo:hi]
    if not near:
        raise RuntimeError("pace sidecar gave no readings")
    return sum(NOMINAL_S / c for _, c in near) / len(near)


class Pace:
    """Pins this process to one CPU and runs the sidecar beside it.
    ``rescale`` puts an interval measured on ``clock`` at the reference speed;
    call it soon after the interval ends, while the readings are fresh."""

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.cpu = min(self.allowed)
        os.sched_setaffinity(0, {self.cpu})
        self.readings: list[tuple[float, float]] = []
        self._buf = b""
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._fd = self.proc.stdout.fileno()
        deadline = clock() + 60.0
        while not self._buf.startswith(b"ready\n"):
            chunk = os.read(self._fd, 4096) if select.select([self._fd], [], [], 1.0)[0] else b""
            if (not chunk and self.proc.poll() is not None) or clock() > deadline:
                self.stop()
                raise RuntimeError("pace sidecar did not start")
            self._buf += chunk
        self._buf = self._buf[len(b"ready\n"):]

    def _drain(self) -> None:
        # The pipe must not fill: at ~25 bytes a reading it holds about fifty
        # seconds, and every interval the benchmark times is shorter.
        while select.select([self._fd], [], [], 0)[0]:
            chunk = os.read(self._fd, 65536)
            if not chunk:
                break
            self._buf += chunk
        *lines, self._buf = self._buf.split(b"\n")
        for line in lines:
            t, cpu = line.split()
            self.readings.append((float(t), float(cpu)))

    def speed(self, start: float, end: float) -> float:
        """Reference speed over the speed during ``[start, end]``."""
        self._drain()
        return factor(self.readings, start, end)

    def rescale(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at the reference speed."""
        return (end - start) * self.speed(start, end)

    @contextmanager
    def unpinned(self):
        """Every CPU for the children started inside, e.g. a thread-scaling probe."""
        os.sched_setaffinity(0, self.allowed)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {self.cpu})

    def stop(self) -> None:
        """End the sidecar, wait for it, and unpin this process."""
        if self.proc.poll() is None:
            self._drain()
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        os.sched_setaffinity(0, self.allowed)


if __name__ == "__main__":
    sidecar()
