"""Host-speed calibration for time metrics.

Shared hosts change speed under the benchmark: on a 2-core VM a training
epoch was seen to take 30 ms for some seconds and 50 ms for the next, with
nothing else running in the VM. To keep runs comparable, the benchmark
times a fixed reference kernel of its own every 50 ms of a run and scales
each operation's wall time by REFERENCE_MS / (recent kernel time). Times
then read as on a host where one kernel pass takes REFERENCE_MS. The
kernel does what the workloads do, small numpy calls driven by Python
loops, so both slow down together. It does not use celab, so a change to
celab does not change it. Raw wall times stay in each result record.
"""

from __future__ import annotations

from collections import deque
from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_MS = 1.5  # one kernel pass on the 2-core host the benchmark was tuned on
SAMPLE_EVERY_S = 0.05


def reference_ms() -> float:
    """Wall time of one pass of the reference kernel, in ms."""
    x = np.linspace(0.0, 1.0, 64).reshape(4, 16)
    w = np.full((16, 16), 0.01)
    total = 0.0
    start = perf_counter()
    for _ in range(150):
        y = x @ w
        y = np.where(y > 0.5, y, 0.2 * y)
        y = np.concatenate([y[:, :8], y[:, 8:]], axis=1)
        total += float(y.sum())
        table = {}
        for j in range(10):
            table[j] = j * total
    return (perf_counter() - start) * 1e3


class HostSpeed:
    """Scale factor from wall time to reference-host time, refreshed from a
    kernel sample whenever SAMPLE_EVERY_S has passed since the last one."""

    def __init__(self):
        reference_ms()  # first pass pays for numpy's lazy set-up
        self.samples: list[float] = []
        self._recent: deque[float] = deque(maxlen=3)
        self._last = float("-inf")

    def scale(self) -> float:
        if perf_counter() - self._last >= SAMPLE_EVERY_S or not self._recent:
            sample = reference_ms()
            self.samples.append(sample)
            self._recent.append(sample)
            self._last = perf_counter()
        return REFERENCE_MS / median(self._recent)
