"""Reference clock: times in seconds at the speed of a fixed pure-Python job.

The benchmark runs on shared hosts whose speed drifts for tens of seconds to
minutes at a time, by up to a factor of two.  A time measured next to a fixed
job of the same kind (pure-Python floating-point loops) drifts with the host
and cancels that drift out:

    reference seconds = wall seconds * NOMINAL_S / (the job's time measured now)

Times of child processes (fresh interpreters, CLI runs) use a second job,
a fresh interpreter that imports a fixed set of standard-library modules: a
pure-Python job tracks process start-up and imports poorly.

The in-process job is a fixed number of Weiszfeld steps on a fixed five-point instance,
written the way quadft's solvers are written (small frozen dataclasses,
method calls, math-module calls), so that it slows down with the host in the
same way.  It imports nothing from quadft, so no change to quadft can move it.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def distance_to(self, other: _Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


_POINTS = tuple(_Point(x, y) for x, y in ((0.0, 0.0), (7.0, 0.0), (7.0, 4.0), (0.0, 4.0),
                                          (3.0, 6.5)))
_WEIGHTS = (3.0, 2.5, 1.7, 1.5, 1.1)
_STEPS = 60
_REPEATS = 24

# Nominal job times, typical of the machine the README's figures come from:
# reference time = wall time * nominal / measured job time.
NOMINAL_S = 2.0e-4
PROCESS_NOMINAL_S = 0.2

_PROCESS_JOB = ("import argparse, asyncio, csv, ctypes, dataclasses, decimal, "
                "email.mime.multipart, fractions, http.client, json, sqlite3, statistics, "
                "unittest, xml.dom.minidom")


def _job() -> _Point:
    p = _Point(1.0, 1.0)
    for _ in range(_STEPS):
        num_x = num_y = den = 0.0
        for q, w in zip(_POINTS, _WEIGHTS):
            d = p.distance_to(q) + 1e-12
            num_x += w * q.x / d
            num_y += w * q.y / d
            den += w / d
        p = _Point(num_x / den + 1e-3, num_y / den)
    return p


def sample() -> float:
    """Mean wall time of one job over a few back-to-back repeats (about 5 ms
    in all), so that a host shared in short slices reads as slower."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _job()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def process_sample() -> float:
    """Wall time of one fresh interpreter running the process job."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROCESS_JOB], check=True, capture_output=True,
                   timeout=60)
    return time.perf_counter() - t0


class Normalizer:
    """Turns wall times into reference seconds, sampling a job around each
    timed stretch; the sample after one stretch is the sample before the next.
    `process` selects the process job, for stretches spent in child processes."""

    def __init__(self, process: bool = False):
        self._sample = process_sample if process else sample
        self.nominal = PROCESS_NOMINAL_S if process else NOMINAL_S
        self.before = self._sample()
        self.samples = [self.before]

    def factor(self) -> float:
        """Close the current stretch: sample again and return the factor that
        converts its wall seconds into reference seconds."""
        after = self._sample()
        self.samples.append(after)
        factor = self.nominal / (0.5 * (self.before + after))
        self.before = after
        return factor
