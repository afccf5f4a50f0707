"""Host-speed reference: a fixed kernel timed between operations.

A shared host can run the same single-threaded code markedly slower for
stretches of tens of seconds while other tenants load its cores and caches
(up to about 1.7 times on a 2-core Intel Xeon virtual machine). A run that
falls into such a stretch would read as a regression of the program. So
every latency is divided by the speed of a fixed kernel timed right before
and right after the operation, and expressed in seconds at the kernel's
nominal speed:

    normalised = sum over stretches of  stretch * NOMINAL_S / mean(kernel at its two ends)

A stretch runs from one kernel sample to the next. Samples are taken
before and after every operation and, inside a long one, at the first call
into pbopt's innermost public entries (scipy's L-BFGS-B as bound in
``pbopt.maxmin`` and ``solve_lp``) once INTERVAL_S has passed; time spent
in the kernel is not counted as the operation's.

The kernel is the benchmark's own code, not pbopt's: scipy's L-BFGS-B on a
2-D Rosenbrock function with a small numpy callback, the same mix of
interpreter, numpy and scipy work as pbopt's inner loop. A change to pbopt
therefore moves the normalised figures as much as the raw ones, while a
slow stretch of the host moves both the operation and the kernel.
"""
from __future__ import annotations

import functools
import time

import numpy as np
from scipy.optimize import minimize

# Kernel seconds (best of REPEATS) on a 2-core Intel Xeon virtual machine
# with Python 3.11, numpy 2.4 and scipy 1.17, in a fast stretch.
NOMINAL_S = 1.5e-3
REPEATS = 3
INTERVAL_S = 0.25
_X0 = np.array([-1.2, 1.0])
_BOUNDS = [(-2.0, 2.0), (-2.0, 2.0)]


def _rosenbrock(z):
    a, b = z[0], z[1]
    v = np.array([a - 1.0, 10.0 * (b - a * a)])
    jac = np.array([[1.0, 0.0], [-20.0 * a, 10.0]])
    return float(v @ v), 2.0 * (v @ jac)


def kernel_s() -> float:
    """Best of REPEATS timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        minimize(_rosenbrock, _X0, jac=True, method="L-BFGS-B", bounds=_BOUNDS, options={"maxiter": 200})
        best = min(best, time.perf_counter() - t)
    return best


def normalise(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` expressed at the kernel's nominal speed."""
    return raw_s * 2.0 * NOMINAL_S / (before_s + after_s)


class SpeedProbe:
    """Kernel samples on one timeline, taken between and inside operations."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)
        self.interior = True  # sample inside operations as well
        self._inside = False
        self._due = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        k = kernel_s()
        end = time.perf_counter()
        self.marks.append((start, end, k))
        self._due = end + INTERVAL_S

    def hook(self, fn):
        """``fn`` with an interior sample first when one is due."""

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if self._inside and time.perf_counter() >= self._due:
                self.sample()
            return fn(*args, **kwargs)

        return probed

    def run(self, fn):
        """Call ``fn`` and sample after it; a sample must have just been taken.

        Returns (result, raw seconds, normalised seconds), both without the
        time spent in interior samples.
        """
        first = len(self.marks) - 1
        self._inside = self.interior
        try:
            out = fn()
        finally:
            self._inside = False
        self.sample()
        marks = self.marks[first:]
        raw = norm = 0.0
        for (_, end0, k0), (start1, _, k1) in zip(marks, marks[1:]):
            raw += start1 - end0
            norm += normalise(start1 - end0, k0, k1)
        return out, raw, norm
