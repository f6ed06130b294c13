"""Op timing in reference seconds, corrected for the machine's speed drift.

On a shared machine the speed of one core drifts by tens of percent within
seconds; a fixed pure-Python calibration kernel slows down with it.  The
probe times the kernel before and after every op and, every ``INTERVAL``
seconds, during it (from a timer signal), and scales the op's wall time to a
machine that runs the kernel in ``K_REF`` seconds.  Time spent in the kernel
is left out of the op's time.
"""

from __future__ import annotations

import signal
import statistics
import time

K_REF = 0.25e-3  # the kernel's time on the reference machine, in seconds
INTERVAL = 0.05  # seconds between kernel samples during an op
_N = 16
_BASE = [[(i * 7 + j * 13) % 17 - 8 + 20 * (i == j) for j in range(_N)] for i in range(_N)]


def kernel() -> int:
    """Fraction-free elimination on a fixed 16x16 integer matrix."""
    m = [row[:] for row in _BASE]
    prev = 1
    for k in range(_N - 1):
        mk, pivot = m[k], m[k][k]
        for i in range(k + 1, _N):
            mi, f = m[i], m[i][k]
            for j in range(k + 1, _N):
                mi[j] = (mi[j] * pivot - f * mk[j]) // prev
        prev = pivot
    return m[_N - 1][_N - 1]


def kernel_time(repeats: int = 3) -> float:
    """Fastest of ``repeats`` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Probe:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self):
        self.samples: list[float] = []  # every kernel time taken, for the report
        self._during: list[float] = []
        self._paused = 0.0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self._during.append(kernel_time())
        self._paused += time.perf_counter() - t0

    def run(self, fn, *args):
        """``(result, error, wall_s, ref_s)``; ``error`` is what ``fn`` raised, or None."""
        self._during, self._paused = [kernel_time()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # the caller counts the op as failed
            result, error = None, exc
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._paused
        self._during.append(kernel_time())
        self.samples += self._during
        return result, error, wall, wall * K_REF / statistics.mean(self._during)
