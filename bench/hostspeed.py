"""Host-speed calibration for the benchmark's timings.

A shared host can run a vCPU at two speeds about 2x apart, switching every
fraction of a second to a few seconds (a 2-vCPU x86-64 guest did), and that
moves every timing of a run alike.  A *tick* -- a small fixed piece of
pure-Python work -- measures the speed at one moment.  Ticks are timed right
before and after each job, and every ``CAL_INTERVAL_S`` seconds while it runs
(from a ``SIGALRM`` handler, between the job's bytecodes).  A job's time, less
the ticks run inside it, is multiplied by the mean of ``CAL_REF_S / tick``
over its ticks, so it reads in seconds on a host where one tick takes
``CAL_REF_S`` (the faster speed of that guest, Python 3.11).  The ticks do
not use the package, so no change to the package moves them.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

CAL_REF_S = 0.002
CAL_INTERVAL_S = 0.05
CAL_AROUND = 3


def _tick_work() -> dict:
    """A product of two sparse polynomials (dicts of exponent tuples) with
    ``Fraction`` coefficients: the kind of work the package does."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out = {}
    for ka, va in a.items():
        for kb, vb in a.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            out[k] = out.get(k, 0) + va * vb
    return out


def tick() -> float:
    """Seconds one tick takes now."""
    start = time.perf_counter()
    _tick_work()
    return time.perf_counter() - start


def ticks(n: int = CAL_AROUND) -> list[float]:
    return [tick() for _ in range(n)]


def factor(times) -> float:
    """From seconds on this host to seconds at the reference speed, given
    the tick times of the interval."""
    return statistics.fmean(CAL_REF_S / t for t in times)


class Sampler:
    """Inside the ``with`` block, runs a tick every ``CAL_INTERVAL_S``
    seconds of wall time and keeps its time in ``times``."""

    def __enter__(self) -> "Sampler":
        self.times = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame) -> None:
        self.times.append(tick())
