"""Machine-speed gauge: a fixed reference kernel timed between ops.

On a shared machine the same op can take 30% longer from one minute to
the next while its CPU time tracks its wall time, so the noise is the
core running slower, not the process waiting.  The speed changes within
a second, so one short kernel run says little; the mean of the runs
spread over a block of ops says how fast the core was for that block.

The reference kernel does work of the same kind as the package (scalar
complex Horner steps, and small complex matrix products, determinants,
norms and slice fills in a Python loop) but never calls it, so no change to the package moves it.  The
ops of a block are scaled by ``REF_S / t_ref``, where ``t_ref`` is the
mean kernel time over the runs interleaved with the block and the two
that bracket it: the result is the time on a machine where the kernel
takes ``REF_S``.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

__all__ = ["REF_S", "SpeedGauge", "reference_kernel"]

REF_S = 0.0125  # reference kernel time; on the 2-core box the bounds were set on it took 12-16 ms
REF_EVERY_S = 0.125  # one kernel run per this much op time, about a tenth as long

_M = (np.arange(36).reshape(6, 6) % 7 - 3) + 1j * (np.arange(36).reshape(6, 6) % 5 - 2)


def reference_kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    coeffs = [complex(k % 5 - 2, k % 3 - 1) for k in range(16)]
    for i in range(3000):  # scalar Horner steps, as in the root iteration
        z = complex(0.9, 5e-5 * i)
        v = 0j
        for c in reversed(coeffs):
            v = v * z + c
        acc += abs(v)
    for i in range(350):
        a = _M * (1.0 + 1e-3 * i)
        b = a @ a
        acc += abs(np.linalg.det(b)) + float(np.linalg.norm(a))
        c = np.zeros((12, 12), dtype=complex)
        c[:6, :6] = a
        c[6:, 6:] = b
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel overflowed")
    return time.perf_counter() - start


class SpeedGauge:
    """Kernel timings taken between ops, and the speed factor they imply."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Time the kernel once per REF_EVERY_S since the last run, or once if ``force``.

        After an op longer than REF_EVERY_S the kernel runs several times
        back to back, so a block of long ops is sampled as densely as one
        of short ops.
        """
        now = time.perf_counter()
        due = 1 if force or not self.starts else int((now - self.starts[-1]) / REF_EVERY_S)
        for _ in range(due):
            self.starts.append(time.perf_counter())
            self.seconds.append(reference_kernel())

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean kernel time from the last run before ``t0`` to the first after ``t1``."""
        lo = max(0, bisect.bisect(self.starts, t0) - 1)
        hi = bisect.bisect(self.starts, t1) + 1
        around = self.seconds[lo:hi]
        return REF_S / (sum(around) / len(around))
