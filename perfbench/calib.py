"""Reference work that gauges the host's speed while a run goes on.

The host this benchmark runs on is shared, and its speed for one thread
drifts by 20% to a factor of two over minutes, which no clock removes.  So
every timed operation is bracketed by runs of a fixed piece of reference
work, timed by the same clock, and its time is reported scaled to a nominal
host: one on which the reference takes its nominal time.  With the scaling,
the median operation time of 4- to 8-second windows spread 0.01-0.04
(IQR/median) where the measured times spread 0.12-0.24.

There are two references, one for each kind of operation:

- `kernel`, for operations inside the benchmark's process: pure Python of
  the same character as the library's sweeps (a loop that dispatches on the
  steps of a fixed schedule and does float arithmetic and math calls).
- `REFERENCE_PROCESS`, for operations that start a process (the `cli`
  workload and set-up): a fresh interpreter that imports numpy, as both
  of those do through adkit.  Interpreter start, loading numpy's shared
  libraries and starting and stopping its BLAS threads slow down
  differently from Python code, and the kernel does not track them.

Neither uses adkit or depends on the seed, so a change to adkit moves the
operation's time and leaves the reference alone.  Changing either changes
every reported time: give it a new nominal time and record a new baseline.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

KERNEL_MS = 0.4  # the kernel's time on the nominal host
PROCESS_MS = 150.0  # the reference process's time on the nominal host
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy"]
STEPS = 120
REPEAT = 12


def _schedule() -> list[tuple]:
    """A fixed schedule of (kind, a, b) over earlier slots.  Every kind is
    defined on all of the reals, so no input leaves its domain."""
    rng = random.Random("perfbench/calib")
    kinds = ("add", "sub", "mul", "sin", "cos", "tanh", "hypot1")
    return [(rng.choice(kinds), rng.randrange(2 + i), rng.randrange(2 + i))
            for i in range(STEPS)]


SCHEDULE = _schedule()


def kernel(x: float = 0.3, y: float = -0.7) -> float:
    """Value and tangent of the fixed schedule, REPEAT times."""
    total = 0.0
    for _ in range(REPEAT):
        v = [x, y]
        t = [1.0, 0.0]
        for kind, a, b in SCHEDULE:
            va, ta = v[a], t[a]
            if kind == "add":
                v.append(va + v[b])
                t.append(ta + t[b])
            elif kind == "sub":
                v.append(va - v[b])
                t.append(ta - t[b])
            elif kind == "mul":  # tanh(a * b), which keeps values small
                vb = v[b]
                v.append(math.tanh(va * vb))
                t.append((1.0 - v[-1] * v[-1]) * (ta * vb + va * t[b]))
            elif kind == "sin":
                v.append(math.sin(va))
                t.append(math.cos(va) * ta)
            elif kind == "cos":
                v.append(math.cos(va))
                t.append(-math.sin(va) * ta)
            elif kind == "tanh":
                v.append(math.tanh(va))
                t.append((1.0 - v[-1] * v[-1]) * ta)
            else:  # sqrt(1 + a^2)
                r = math.sqrt(1.0 + va * va)
                v.append(r)
                t.append(va * ta / r)
        total += v[-1] + t[-1]
    return total


def _reference_process() -> None:
    # No timeout: with one, `wait` polls at intervals of up to 50 ms, which
    # would add up to 50 ms to the measured time.
    subprocess.run(REFERENCE_PROCESS, check=True)


class Gauge:
    """Reference times taken between operations, and the scales they give.

    Call `tick` once before the first operation and once after each; then
    operation k ran between ticks k and k + 1.
    """

    def __init__(self, clock, reference, nominal_ms: float) -> None:
        self.clock = clock
        self.reference = reference
        self.nominal = nominal_ms * 1e-3
        self.times: list[float] = []

    def tick(self) -> None:
        t0 = self.clock()
        self.reference()
        self.times.append(self.clock() - t0)

    def scale(self, k: int) -> float:
        """Nominal seconds per measured second around operation k."""
        around = self.times[k:k + 2]
        return self.nominal * len(around) / sum(around)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.times)


def in_process() -> Gauge:
    """For operations timed by the CPU clock of the benchmark's thread."""
    return Gauge(thread_time, kernel, KERNEL_MS)


def fresh_process() -> Gauge:
    """For operations timed by the wall clock that start a process."""
    return Gauge(perf_counter, _reference_process, PROCESS_MS)
