"""Speed-adjusted wall time.

The benchmark shares its machine: on the reference box the same Python
code runs up to 1.8 times slower from one second to the next, depending on
what the neighbours of the virtual CPU do.  The probe here measures that
speed while the program runs.  A ``SIGALRM`` timer interrupts the main
thread every ``PERIOD`` seconds and times ``KERNEL``, a fixed piece of
``Fraction`` arithmetic of the kind the program spends its time on, at
about 0.7 ms a sample.  ``adjusted(a, b)`` then rescales the wall time
``b - a`` by the mean speed sampled in it:

    adjusted = (b - a) * mean(REFERENCE_KERNEL_S / sample)

that is, the time the interval would have taken had the machine run the
kernel at ``REFERENCE_KERNEL_S`` throughout.  A change to the program does
not touch the kernel, so it moves the adjusted time as it moves the wall
time.  The sampling costs about 1.5 % of the run, the same on every commit.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD = 0.05
# kernel time on the reference box (2 vCPUs, Python 3.11.7) when unloaded
REFERENCE_KERNEL_S = 0.62e-3


def kernel() -> Fraction:
    s = Fraction(0)
    d = {}
    for i in range(1, 80):
        s += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
        d[i & 15] = s
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum, frame):
        t = time.monotonic()
        kernel()
        self.samples.append((t, time.monotonic() - t))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, a: float, b: float) -> float:
        """Mean speed in [a, b] relative to the reference; the nearest sample
        stands in for an interval too short to hold one."""
        inside = [d for t, d in self.samples if a <= t <= b]
        if not inside:
            if not self.samples:
                return 1.0
            inside = [min(self.samples, key=lambda s: abs(s[0] - (a + b) / 2))[1]]
        return sum(REFERENCE_KERNEL_S / d for d in inside) / len(inside)

    def adjusted(self, a: float, b: float) -> float:
        return (b - a) * self.factor(a, b)
