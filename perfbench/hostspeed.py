"""Host speed: how fast this machine runs a fixed pure-Python kernel right now.

On a shared virtual machine the same work can take 30 % longer for several
seconds at a time while another tenant loads the host, and runs minutes apart
differ by 20 % or more.  The kernel below slows down in step with the program
(both are interpreter-bound Fraction and dict work), so the benchmark samples
its rate between operations and scales each wall-clock timing by
``rate / REFERENCE_RATE``: the result is the time the operation would take
at the reference speed.  The kernel never calls tinopt, so a change to the
program cannot move the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_RATE = 1000.0   # kernel calls per second that count as full speed
WINDOW = 0.025            # seconds of kernel calls per sample
EVERY = 0.25              # seconds between samples while operations run


def kernel():
    total = Fraction(0)
    table = {}
    for i in range(1, 400):
        total += Fraction(i % 13, i % 97 + 1)
        table[i % 50] = total
    return total


def sample():
    """Kernel calls per second over one short window."""
    start = time.perf_counter()
    calls = 0
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= WINDOW:
            return calls / elapsed


def scale(seconds, *rates):
    """Wall-clock seconds at the reference speed, given the rates sampled
    around the interval."""
    return seconds * sum(rates) / len(rates) / REFERENCE_RATE


class HostClock:
    """Wall-clock timings of consecutive operations, with host-speed samples
    taken between operations at most every EVERY seconds."""

    def __init__(self):
        self.rates = [sample()]
        self._last = time.perf_counter()
        self._timings = []      # (seconds, index of the last sample before)

    def tick(self):
        """Call before each operation; samples when one is due."""
        if time.perf_counter() - self._last >= EVERY:
            self.rates.append(sample())
            self._last = time.perf_counter()

    def record(self, seconds):
        self._timings.append((seconds, len(self.rates) - 1))

    def scaled(self):
        """Every recorded timing scaled by the samples on either side of it."""
        rates = self.rates + [sample()]
        return [scale(seconds, rates[i], rates[i + 1]) for seconds, i in self._timings]
