"""The machine's speed, measured by a fixed reference kernel.

The virtual machines this benchmark runs on change speed in phases that
last from half a minute to a few minutes, by up to a factor of two, and
the library's code and CPU time slow down with them.  A 30-second run
cannot average over such a phase.  So each pass times a fixed
pure-Python kernel every EVERY_S between operations, and the pass's
times are scaled to the speed at which the kernel takes NOMINAL_S: each
is multiplied by

    NOMINAL_S / mean(the pass's kernel samples)

The mean, not the median, because a pass's total time is the integral of
the machine's slowness over the pass, short slow spells included, and
the mean of evenly spaced samples estimates the same integral.

The kernel uses no treeval code, so no change to the library moves it,
and it keeps no container objects alive, so the garbage collector's
settings do not move it either.  It does the kind of work the library
does: it multiplies polynomials over a prime field in lists of small
ints, and multiplies and reduces integers of a few thousand bits.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.02  # about the kernel's time on a 2-vCPU VM in a middling phase
EVERY_S = 0.5  # sample the kernel after the operation that passes this much time

_P = 65521
_A = [(7 * i * i + 3) % _P for i in range(32)]
_B = [(5 * i * i * i + 11) % _P for i in range(32)]
_X = 3**2500
_M = (1 << 4423) - 1


def _kernel() -> int:
    out = [0] * 63
    for _ in range(60):
        for k in range(63):
            out[k] = 0
        for i in range(32):
            x = _A[i]
            for j in range(32):
                out[i + j] = (out[i + j] + x * _B[j]) % _P
    acc = out[62]
    for _ in range(150):
        acc = (acc * _X + 1) % _M
    return acc


def sample() -> float:
    """One timing of the kernel, in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Calibrator:
    """Samples the kernel between operations, about every EVERY_S."""

    def __init__(self):
        _kernel()  # warm-up
        self.samples = [sample(), sample()]
        self.last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.samples.append(sample())
            self.last = time.perf_counter()

    def finish(self) -> list[float]:
        self.samples.append(sample())
        return self.samples


def factor(samples) -> float:
    """What a pass's measured times are multiplied by."""
    return NOMINAL_S / statistics.fmean(samples)
