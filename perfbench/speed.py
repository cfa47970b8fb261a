"""Machine-speed probe that rescales measured seconds to a fixed reference speed.

On a shared machine the speed of this process drifts: identical work took
between 2.4 s and 3.5 s in one minute, and 20 s windows of a fixed kernel
spread by 24% (interquartile range over median).  The probe runs a fixed
numpy kernel in this thread every ``INTERVAL`` seconds of a timed section,
from a ``SIGALRM`` handler, and records how fast it ran.  A section's
seconds times the mean speed over that section gives its length at the
reference speed, where the kernel takes ``KERNEL_REF_S``; on the same
identical work this cut the spread to 3.5%.  The kernel is the benchmark's
own, so a change to the program does not move it.  It tracks 12x12 work
closely; on 28x28 work, whose arrays do not stay in cache, it over-corrects:
the same multilevel run read 9.35 s at a probe speed of 0.70 and 8.36 s at
0.53.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.05
KERNEL_REF_S = 0.7e-3  # the kernel's median time at full speed on the README's machine
MIN_SAMPLES = 3  # a section with fewer samples borrows the most recent ones
RECENT = 20


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._y = rng.random((32, 2, 14, 14))
        self._w = rng.random((2, 2, 3, 3))
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.busy = 0.0  # seconds spent in the kernel, for timed sections to leave out
        self._previous = None

    def kernel(self) -> float:
        """Seconds for one pass shaped like ``bank_apply``: nine small einsums."""
        start = perf_counter()
        out = np.zeros((32, 2, 12, 12))
        for p in range(3):
            for q in range(3):
                window = self._y[..., p : p + 12, q : q + 12]
                out += np.einsum("oi,...iyx->...oyx", self._w[:, :, p, q], window, optimize=True)
        return perf_counter() - start

    def sample(self, *_) -> None:
        now = perf_counter()
        seconds = self.kernel()
        self.times.append(now)
        self.speeds.append(KERNEL_REF_S / seconds)
        self.busy += perf_counter() - now

    def start(self) -> None:
        for _ in range(RECENT):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, between two ``perf_counter`` readings."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        inside = self.speeds[lo:hi]
        if len(inside) < MIN_SAMPLES:
            inside = self.speeds[max(0, hi - RECENT) : hi]
        return statistics.fmean(inside)

    def spot_speed(self, repeats: int = 5) -> float:
        """Speed from ``repeats`` kernel runs made now, outside any timed section."""
        return statistics.fmean(KERNEL_REF_S / self.kernel() for _ in range(repeats))
