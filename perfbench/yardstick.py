"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the speed of the same code swings by up to 1.8x within
seconds. Process CPU time swings with it, so the cause is a slower CPU (load
on the sibling hardware thread, shared caches), not descheduling. The
yardstick does the same kinds of work as rdvsafe's hot loops: small numpy
matrix products, reductions and comparisons driven from Python (the reach
loop), scalar float arithmetic packed into small arrays (the RK4 field), and
float formatting (file emission).

`Sampler` runs it every INTERVAL_S of wall time from a SIGALRM handler, all
through the measured part of a run. An operation's time, less the yardstick
time spent inside it, is then scaled by NOMINAL_S over the mean yardstick
duration while it ran ("nominal seconds"). NOMINAL_S is the yardstick's
duration on a quiet host of the machine the benchmark was built on (2-core
Intel Xeon VM, CPython 3.11, numpy 2.4), so nominal seconds read close to
wall seconds there. On that machine, over two sets of ten 20 s runs per
workload, the quartile distance of the runs' median op time, as a share of
its median, was 0.06-0.43 in wall seconds and 0.015-0.07 in nominal seconds.
"""

import bisect
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0008
INTERVAL_S = 0.05
MIN_SAMPLES = 5            # a short op borrows the samples nearest to it
_STEPS = 40
_PHI = np.eye(4) + 1e-3 * np.arange(16.0).reshape(4, 4)
_NORMALS = np.vstack([np.eye(4), -np.eye(4)])


def measure() -> float:
    """Run the reference computation once; return its wall time in seconds."""
    t0 = perf_counter()
    c, V = np.ones(4), np.eye(4)
    acc, text = 0.0, []
    for _ in range(_STEPS):
        c = _PHI @ c
        V = _PHI @ V
        reach = np.abs(V).sum(axis=1)
        acc += float((_NORMALS @ c + np.abs(_NORMALS @ V).sum(axis=1)).max())
        if np.all(c - reach < acc):
            acc *= 0.5
        x, y, vx, vy = float(c[0]), float(c[1]), float(c[2]), float(c[3])
        rx = 4.2e7 + x
        inv_r3 = (rx * rx + y * y) ** -1.5
        ax = 1e-8 * x + 2e-4 * vy - 3.7e14 * inv_r3 * rx + 2e-7
        ay = 1e-8 * y - 2e-4 * vx - 3.7e14 * inv_r3 * y
        acc += float(np.array([vx, vy, ax, ay]).sum()) * 1e-12
        text.append(f"{acc:.17g}")
    return perf_counter() - t0


class Sampler:
    """Runs the yardstick every INTERVAL_S while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            self.durations.append(measure())
            self.starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self):
        measure()                                   # warm-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def gauge(self, t0: float, t1: float) -> tuple[float, float]:
        """(mean yardstick seconds, yardstick seconds spent inside) for [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        spent = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            picked = [self.durations[i] for i in nearest[:MIN_SAMPLES]]
        else:
            picked = self.durations[lo:hi]
        if not picked:
            raise RuntimeError("no yardstick samples; the run was too short")
        return statistics.fmean(picked), spent


def nominal(seconds: float, y: float) -> float:
    """Seconds scaled to the nominal machine speed."""
    return seconds * NOMINAL_S / y


# Set-up is import work, which the yardstick above does not track.  Its own
# gauge is a fresh interpreter importing a fixed set of modules, timed right
# after each set-up probe.  On the build machine the median of 15 probes
# drifted by 1.23x over seven minutes; its ratio to this baseline by 1.10x.
IMPORT_BASELINE = "import argparse, json, numpy, scipy.linalg, scipy.optimize"
IMPORT_NOMINAL_S = 0.5
BASELINE_TIMEOUT_S = 120


def import_baseline(cwd) -> float:
    """Wall seconds of one fresh interpreter running IMPORT_BASELINE."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_BASELINE], check=True, cwd=cwd,
                   timeout=BASELINE_TIMEOUT_S)
    return perf_counter() - t0
