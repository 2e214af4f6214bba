"""Contention-corrected timing for a shared, noisy host.

On a few vCPUs of a shared host the speed of the same code drifts by 20-70%
within seconds and from minute to minute, as other tenants load the machine;
medians over a run do not remove that. ``ContentionClock`` measures the drift
while the workload runs: a SIGALRM every ``PERIOD_S`` runs a fixed reference
kernel (a pure-Python loop and small-vector numpy, the mix most of qimpute's
time goes to) and records how long it took. An interval's time is then
expressed in units of the reference kernel's time during that interval:

    corrected = (elapsed - time spent in the reference kernel)
                * REFERENCE_S / mean(reference samples in the interval)

``REFERENCE_S`` only fixes the unit: it is the reference kernel's median
time on the machine the benchmark was defined on (2 vCPUs of a shared Xeon
VM), so corrected times there read as typical seconds. The reference kernel
is the benchmark's own code and stays fixed, so a faster qimpute shows as a
smaller corrected time. Sampling costs about 2% of the run; that time is
subtracted from every interval.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
REFERENCE_S = 0.1e-3

_VEC = np.linspace(-1.0, 1.0, 256)


def reference_kernel() -> float:
    """A fixed amount of mixed interpreter and numpy work."""
    acc = 0
    for i in range(400):
        acc += (i * i) % 7
    x = _VEC
    for _ in range(15):
        x = np.tanh(x * 0.5) + _VEC
    return acc + float(x[0])


class ContentionClock:
    """Samples the reference kernel on a timer; times intervals against it."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.kernel_s = 0.0  # total time spent in the reference kernel
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # The untimed first call brings the kernel back into cache after the
        # workload evicted it, so the timed call measures the host's
        # contention rather than the workload's own cache footprint.
        start = time.perf_counter()
        reference_kernel()
        timed = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.kernel_s += end - start

    def start(self) -> None:
        reference_kernel()  # warm numpy's dispatch before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.kernel_s, len(self.samples)

    def interval(self, since: tuple[float, float, int]) -> "Interval":
        """The interval from ``since`` (a ``mark()``) to now."""
        start, kernel_s, first = since
        elapsed = time.perf_counter() - start
        return Interval(elapsed - (self.kernel_s - kernel_s), self.samples[first:])

    def typical(self) -> float:
        """The median reference sample of the run so far."""
        return statistics.median(self.samples)

    def summary(self) -> dict:
        s = sorted(self.samples)
        if not s:
            return {"samples": 0}
        return {
            "samples": len(s),
            "min_ms": 1e3 * s[0],
            "p01_ms": 1e3 * s[len(s) // 100],
            "median_ms": 1e3 * statistics.median(s),
            "kernel_s": self.kernel_s,
        }


class Interval:
    """One timed interval: its time without the reference kernel, and the
    reference samples taken during it."""

    def __init__(self, seconds: float, samples: list[float]):
        self.seconds = seconds
        self.samples = samples

    def corrected(self, fallback: float) -> float:
        """``seconds`` in reference units (see the module docstring).

        ``fallback`` is the reference time to use when the interval was too
        short to hold a sample.
        """
        mean = statistics.fmean(self.samples) if self.samples else fallback
        return self.seconds * REFERENCE_S / mean
