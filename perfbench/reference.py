"""A fixed reference kernel that tracks how fast the machine runs during a run.

On a shared host the same code runs up to 1.6 times slower for seconds to
minutes at a time, and that swings a run's latency median by more than any
bound a regression check could use.  The reference kernel is numpy and
interpreter work that imports nothing from the program under test, on fixed
inputs, so a change to the program cannot change it.  Timed every
:data:`INTERVAL_S` during a timed phase, it gives the machine's current
speed; dividing a request's latency by the latest reference time states the
request's cost in reference-kernel units (``ref``), which the host's swings
move far less than they move microseconds.  Raw microseconds stay in the
full report next to every ``ref`` metric.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np
from scipy.special import ndtr

#: Seconds of timed phase between reference samples.
INTERVAL_S = 0.25

#: Back-to-back kernel calls per sample; the sample is the fastest.
REPEATS = 3

_rng = np.random.default_rng(20_061_110)
_CENTRES = _rng.uniform(0.0, 100.0, (256, 2))
_SPREADS = _rng.uniform(1.0, 4.0, (256, 2))
_WEIGHTS = _rng.random(256)
_LOWS = _rng.uniform(0.0, 90.0, (16, 2))
_HIGHS = _LOWS + _rng.uniform(1.0, 10.0, (16, 2))


def kernel() -> float:
    """Product-CDF box masses of 16 boxes over 256 kernels, then dict and tuple work."""
    mass = np.ones((_LOWS.shape[0], _CENTRES.shape[0]))
    for d in range(2):
        mass *= (ndtr((_HIGHS[:, d, None] - _CENTRES[:, d]) / _SPREADS[:, d])
                 - ndtr((_LOWS[:, d, None] - _CENTRES[:, d]) / _SPREADS[:, d]))
    table: dict[tuple, int] = {}
    for i in range(1600):
        key = (i & 63, "x0", i >> 6)
        table[key] = table.get(key, 0) + len(key)
    return float((mass @ _WEIGHTS).sum()) + len(table)


def sample_ns() -> int:
    """One reference sample: the fastest of :data:`REPEATS` kernel calls, in nanoseconds."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        kernel()
        times.append(perf_counter_ns() - start)
    return min(times)


class SpeedReference:
    """Samples the reference kernel during a timed phase.

    Call :meth:`poll` before each timed operation; at most every
    :data:`INTERVAL_S` it times the kernel, outside the operation's window.
    ``current`` is the latest sample in nanoseconds.  ``scaled_wall`` is the
    phase's wall time in reference units, each stretch between samples
    divided by the sample that opened it, less the time :meth:`exclude`
    names; ``spent_ns`` is the time the kernel itself took, which the
    workloads leave out of their wall time.
    """

    def __init__(self) -> None:
        self._due = 0
        self._opened: int | None = None
        self._excluded = 0
        self.current = float("nan")
        self.samples = array("q")
        self.spent_ns = 0
        self.scaled_wall = 0.0

    def poll(self, now: int | None = None) -> None:
        now = perf_counter_ns() if now is None else now
        if now < self._due:
            return
        self._close(now)
        best = sample_ns()
        self.samples.append(best)
        self.current = float(best)
        after = perf_counter_ns()
        self.spent_ns += after - now
        self._opened = after
        self._due = after + int(INTERVAL_S * 1e9)

    def exclude(self, ns: int) -> None:
        """Leave ``ns`` of the current stretch out of ``scaled_wall``."""
        self._excluded += ns

    def finish(self, now: int | None = None) -> None:
        """Close the last stretch at the end of the timed phase."""
        self._close(perf_counter_ns() if now is None else now)
        self._opened = None

    def _close(self, now: int) -> None:
        if self._opened is not None:
            self.scaled_wall += (now - self._opened - self._excluded) / self.current
        self._excluded = 0
