"""The calibration kernel: a fixed loop of pure-Python Fraction arithmetic.

It calls no library code.  Its cost is made of the same things the
library spends its time on -- small arbitrary-precision rationals, tuples
and short function calls -- so its wall time follows the speed of the
machine, and a job's time divided by the kernel's time ("calibration
units") cancels most of the drift in machine speed.

The machine's speed changes within a second (one 15 s sample of 40 ms
passes, averaged over 0.5 s windows, ranged from 31 to 53 ms), so a
``Calibration`` runs one full pass just before the job, one just after,
and a short slice every TICK_S seconds during it from a timer signal.
Its ``clock`` excludes the time spent in the kernel, so job and span
times measured with it hold only the job's own work.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PASS_ROUNDS = 1000
SLICE_ROUNDS = 100
TICK_S = 0.05


def _poly(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _kernel(rounds: int) -> Fraction:
    total = Fraction(0)
    for i in range(1, rounds + 1):
        a = Fraction(i, i + 1)
        b = Fraction(2 * i + 1, 3 * i + 2)
        coeffs = (a, b, a - b, a * b, Fraction(1, i))
        v = _poly(coeffs, Fraction(1, 2)) / (a + b)
        total += v - v.numerator // v.denominator
        total = Fraction(round(total * 4200000), 4200000)
    return total


# results of a pass and of a slice, checked on every run so that a broken
# kernel cannot pass for a fast one
_EXPECTED = {
    PASS_ROUNDS: Fraction(14885727, 43750),
    SLICE_ROUNDS: Fraction(1990397, 56000),
}


class Calibration:
    """Kernel time spent around and during the jobs of one worker."""

    def __init__(self):
        self.spent = 0.0
        self.rounds = 0

    def clock(self) -> float:
        """Wall time minus the time spent in the kernel so far."""
        return time.perf_counter() - self.spent

    def _run(self, rounds):
        t0 = time.perf_counter()
        value = _kernel(rounds)
        self.spent += time.perf_counter() - t0
        self.rounds += rounds
        if value != _EXPECTED[rounds]:
            raise RuntimeError(f"calibration kernel computed {value}")

    def _tick(self, signum, frame):
        self._run(SLICE_ROUNDS)

    def around(self, job):
        """Run ``job()`` between two passes, with slices during it."""
        self._run(PASS_ROUNDS)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = job()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._run(PASS_ROUNDS)
        return result
