"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a host shared with other tenants the speed of one core drifts by up to
about 40% over seconds to minutes, so the raw pass time of one run says more
about the neighbours than about the code.  Fixed reference kernels are timed
now and then next to the measured work, and a measured time is multiplied by
the mean speed seen while it ran,

    speed = kernel's reference seconds / kernel's seconds now,

which gives the time the work would have taken at the reference speed.  The
kernels do not touch hardyscope, so no change to the library can move them.

The drift does not slow every kind of work alike, so two kernels are timed:

* ``interpreter``: small-array ufunc calls in the shape of ``_logsinh`` plus
  a scalar float loop, for work spent in the Python interpreter (the Green
  engine's per-knot loop, scipy ``quad`` callbacks).
* ``native``: a tridiagonal eigensolve and a large-array ufunc, for work
  spent in LAPACK and big numpy arrays (``spectral bottom``).

Every workload is scaled by the same speed, the geometric mean of the two
(``mixed``), so that a change which moves work from the interpreter into
native code is scaled alike before and after it.  Both kernel speeds are kept
next to every raw time in the full results.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

SAMPLE_PERIOD_S = 0.2

_X = np.linspace(0.5, 4.0, 6)
_rng = np.random.default_rng(0)
_DIAG = 2.0 + _rng.random(1500)
_OFF = -_rng.random(1499)
_Y = np.linspace(0.1, 5.0, 15000)


def _interpreter_kernel() -> float:
    acc = 0.0
    for i in range(25):
        x = _X * (1.0 + 1e-3 * i)
        big = x > 20.0
        acc += float(np.sum(np.where(big, x, np.log(np.sinh(np.where(big, 1.0, x))))))
    for i in range(500):
        acc += math.sin(i * 1e-3)
    return acc


def _native_kernel() -> float:
    low = eigh_tridiagonal(_DIAG, _OFF, select="i", select_range=(0, 0), eigvals_only=True)
    return float(low[0]) + float(np.sum(np.sinh(_Y) ** 3))


#: kernel and the duration of one warm call at the reference speed, close to
#: the fastest seen on the 2-CPU machine the seed baseline was recorded on
KERNELS = {
    "interpreter": (_interpreter_kernel, 2.2e-4),
    "native": (_native_kernel, 7.0e-4),
}


def burst_speed(kind: str, calls: int = 4) -> float:
    """Speed from the fastest of a few kernel calls made after one untimed
    call.  The untimed call refills the caches the measured work evicted: a
    cold interpreter-kernel call after a 50k-cell eigensolve runs 60% slower
    than after a Green batch, while warm calls agree to about 1%."""
    kernel, reference_s = KERNELS[kind]
    kernel()
    best = math.inf
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return reference_s / best


def burst_speeds() -> dict:
    """One burst of each kernel: kind -> speed."""
    return {kind: burst_speed(kind) for kind in KERNELS}


def mixed(speeds: dict) -> float:
    """The speed every time is scaled with: the geometric mean of the kernels'."""
    return math.prod(speeds.values()) ** (1.0 / len(speeds))


def speed_now() -> dict:
    """Median speed of each kernel over a few bursts, for timings taken
    outside a sampler."""
    bursts = [burst_speeds() for _ in range(5)]
    return {kind: statistics.median(b[kind] for b in bursts) for kind in KERNELS}


class SpeedSampler:
    """Measures the kernels' speeds from a SIGALRM handler every
    SAMPLE_PERIOD_S of wall time, so that drift inside long tasks is seen too.

    The handler's own time is tallied in ``spent`` and ``cpu_spent`` so that
    callers can take it out of the intervals they measure.
    """

    def __init__(self):
        self.samples: list = []  # (perf_counter at the end of a sample, {kind: speed})
        self.spent = 0.0
        self.cpu_spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        speeds = burst_speeds()
        t1 = time.perf_counter()
        self.samples.append((t1, speeds))
        self.spent += t1 - t0
        self.cpu_spent += time.process_time() - cpu0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_speeds(self, start: float, end: float) -> dict:
        """Mean speed of each kernel over the samples taken in [start, end];
        a window too short to hold one sample gets a measurement made on the
        spot."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            return speed_now()
        return {kind: statistics.fmean(s[kind] for s in inside) for kind in KERNELS}
