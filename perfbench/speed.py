"""The host's speed, sampled while the benchmark runs.

A shared virtual machine runs the same code at speeds that change within
a second and drift by a fifth and more over minutes (README.md gives the
measurements). :class:`HostSpeed` times ``reference_work``, a fixed
pure-Python workload, whenever ``every_s`` has passed since the last
sample: checked before each day, between a day's steps and between
``dispatch`` calls. Each day's timings are then reported at a nominal
host speed: scaled by ``REFERENCE_S`` over the mean reference time of the
samples from the last one before the day to the first one after it.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

#: Nominal time of one reference_work call: timings are reported at the
#: host speed where the call takes this long.
REFERENCE_S = 0.030


def reference_work() -> int:
    """Fixed integer, float and dict work whose time tracks the host's speed."""
    total = 0
    for i in range(180_000):
        total += i * i % 7
    table = {}
    for i in range(18_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + math.exp(-(i % 50) / 10.0) * 1.0001 ** (i % 7)
    return total + len(sorted(table.items(), key=lambda kv: (-kv[1], kv[0])))


class HostSpeed:
    """Timed ``reference_work`` calls, and the wall time they took in all."""

    def __init__(self, every_s: float = 0.25) -> None:
        self.every_s = every_s
        self.samples: List[float] = []
        #: seconds spent in reference_work, so that timed steps can leave it out
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self) -> int:
        """Time one call; return its index in :attr:`samples`."""
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1
        return len(self.samples) - 1

    def poll(self) -> None:
        """Sample when ``every_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def scale(self, first: int, last: int) -> float:
        """The factor that brings timings made between samples ``first``
        and ``last`` (both included) to the nominal host speed."""
        return REFERENCE_S / statistics.fmean(self.samples[first:last + 1])
