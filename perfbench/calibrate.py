"""Follows the machine's speed, so that times from different runs compare.

On a shared 2-vCPU KVM guest the host changed speed by up to 1.7x within
minutes and in bursts of a few seconds, and every op slowed with it: raw
wall times of one code version moved by 15-80% between two sets of ten
runs.  So the worker times a fixed kernel between ops, outside
the timed region, and scales each op's wall time by ``NOMINAL_KERNEL_NS``
over the median of the five kernel samples nearest to it in time.  The
metrics then read as times on a machine where the kernel takes 3.0 ms.
Raw times are reported beside them.

The ``oracle`` workload spends most of its time on 2^n tables of up to
2 MB, and co-tenants slow that memory traffic more than the interpreter:
scaled by the small kernel alone, its p90 still spread by about 0.1 between
ten seeds.  Its calibration adds a 2^18 dense table built in a buffer that
is allocated once, so the sample does not depend on the allocator state the
program leaves behind; the nominal time becomes 4.0 ms.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Scaled times are times on a machine where one kernel run takes this long.
NOMINAL_KERNEL_NS = 3_000_000
#: ... plus this long for the dense table, where it is timed.
NOMINAL_DENSE_NS = 1_000_000
#: Least time between two kernel samples.
GAP_S = 0.05
#: Samples on each side of an op that set its scale.
HALF_WINDOW = 2


def kernel():
    """A fixed mix of the work the workloads do: interpreter dispatch, a
    small-array convolution, ``Fraction`` sums and a 2^12 dense table."""
    import numpy as np  # here, so that the cli worker's set-up does not pay for it

    acc = 0
    for i in range(10000):
        acc += (i * 7) % 13
    pmf = np.zeros(65)
    pmf[0] = 1.0
    for a in np.linspace(0.01, 0.5, 64):
        pmf[1:] = pmf[1:] * (1.0 - a) + pmf[:-1] * a
        pmf[0] *= 1.0 - a
    total = Fraction(0)
    for j in range(1, 150):
        total += Fraction(j, 10**6 + j)
    table = np.ones(1)
    for a in np.linspace(0.05, 0.95, 12):
        table = np.concatenate([table * (1.0 - a), table * a])
    return acc, pmf[-1], total, table[-1]


def dense_table(buf):
    """The products of a 2^18 dense table, built in place in ``buf``."""
    import numpy as np

    buf[0] = 1.0
    size = 1
    for a in np.linspace(0.05, 0.95, 18):
        np.multiply(buf[:size], a, out=buf[size:2 * size])
        buf[:size] *= 1.0 - a
        size *= 2
    return buf.sum()


class Calibration:
    """Kernel samples of one run, and the scale they give each op."""

    def __init__(self, dense: bool = False):
        self.samples: list[int] = []
        self._last = float("-inf")
        self.nominal = NOMINAL_KERNEL_NS
        self._buf = None
        if dense:
            import numpy as np

            self.nominal += NOMINAL_DENSE_NS
            self._buf = np.zeros(1 << 18)
        self._kernel()  # warm, untimed

    def _kernel(self):
        kernel()
        if self._buf is not None:
            dense_table(self._buf)

    def sample(self) -> int:
        """Time the kernel if ``GAP_S`` has passed; the latest sample's index."""
        if time.monotonic() - self._last >= GAP_S:
            t0 = time.perf_counter_ns()
            self._kernel()
            self.samples.append(time.perf_counter_ns() - t0)
            self._last = time.monotonic()
        return len(self.samples) - 1

    def scaled(self, timed) -> list[float]:
        """Scaled times of ``(ns, sample index)`` pairs."""
        out = []
        for ns, j in timed:
            near = self.samples[max(0, j - HALF_WINDOW):j + HALF_WINDOW + 1]
            out.append(ns * self.nominal / statistics.median(near))
        return out

    def factor(self) -> float:
        """One scale for the whole run, for times not tied to an op."""
        return self.nominal / statistics.median(self.samples)

    def kernel_ms(self) -> float:
        return statistics.median(self.samples) / 1e6
