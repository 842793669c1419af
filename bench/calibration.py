"""Reference-machine time: the benchmark's answer to a host whose speed drifts.

On a shared virtual machine the host's speed swings by up to 1.7x over
minutes: on a 2-vCPU Xeon VM, 20-second medians of a fixed pure-Python loop
ranged from 10.8 to 19.2 ms within five minutes, and whole benchmark runs
that fell into a slow spell read 1.2-1.7x slower on every timing. No median
inside one run can hide a spell that covers the run. So each run also times
fixed kernels that share no code with the program and reports its times as
reference-machine times: measured times scaled by NOMINAL[kind] over the
kernel's median time.

- ``numpy`` streams large float64 arrays, like the query path and the
  set-up. It is sampled between the queries and set-ups, and those are
  scaled by the median over the run (``Calibration``).
- ``python`` is interpreter-bound, like the builds (extraction, hashing and
  the offline encoder). A build takes seconds, long enough for the speed to
  change under it, so each build is scaled by a burst of kernel runs right
  before and right after it (``bracketed``).

The measured times are printed with every result, next to the reference
times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel medians on the reference machine (Intel Xeon, 2 vCPUs, one BLAS thread).
NOMINAL = {"python": 4.0e-3, "numpy": 12.0e-3}


def _python_kernel() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def _python_kernel_seconds(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _python_kernel()
        times.append(time.perf_counter() - start)
    return times


def bracketed(fn, *args, repeats: int = 15):
    """Call ``fn(*args)`` between two bursts of the ``python`` kernel.

    Returns the measured seconds, the same in reference time (scaled by the
    median kernel time of both bursts) and what ``fn`` returned.
    """
    before = _python_kernel_seconds(repeats)
    start = time.perf_counter()
    out = fn(*args)
    seconds = time.perf_counter() - start
    kernel = statistics.median(before + _python_kernel_seconds(repeats))
    return seconds, seconds * NOMINAL["python"] / kernel, out


class Calibration:
    """Samples of the ``numpy`` kernel over one run."""

    def __init__(self):
        # Both arrays are faulted in here and only written in place later, so
        # a sample allocates nothing: its time does not depend on how the
        # program around it has left the heap.
        self._array = np.linspace(0.0, 1.0, 2_000_000)
        self._out = np.ones_like(self._array)
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel once; call between the operations being measured."""
        b = self._out
        start = time.perf_counter()
        np.multiply(self._array, 1.0001, out=b)
        np.add(b, 1.0, out=b)
        np.multiply(b, b, out=b)
        np.sqrt(b, out=b)
        float(b.sum())
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference seconds per measured second for array-streaming work."""
        return NOMINAL["numpy"] / statistics.median(self.samples)
