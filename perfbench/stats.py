"""Percentiles, q-errors and output checks shared by every workload."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Selectivity floor of the q-error, so empty boxes give finite errors.
Q_ERROR_FLOOR = 1e-4


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, because such a tail is one or two unlucky samples.
    """
    n = len(samples)
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100)")
    beyond = n * min(pct, 100.0 - pct) / 100.0
    if beyond < MIN_BEYOND - 1e-9:
        raise ValueError(
            f"p{pct:g} of {n} samples has {beyond:.1f} beyond it; need {MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


def tail_percentile(count: int, nominal: float = 99.0) -> float | None:
    """The highest percentile up to ``nominal`` (in 0.1 steps) that ``count`` samples support."""
    if count < 2 * MIN_BEYOND:
        return None
    supported = math.floor(1000.0 * (1.0 - MIN_BEYOND / count)) / 10.0
    return min(nominal, supported)


def summarize(samples: Sequence[float], nominal_tail: float = 99.0) -> dict:
    """Median and tail of a latency series, with the percentile actually used.

    ``tail_repeats`` says whether the tail of the first and second half of
    the run agree within a tenth (``None`` when a half is too short).
    """
    n = len(samples)
    summary: dict = {"count": n, "p50": None, "tail_pct": None, "tail": None, "tail_repeats": None}
    if n < 2 * MIN_BEYOND:
        return summary
    summary["p50"] = percentile(samples, 50.0)
    pct = tail_percentile(n, nominal_tail)
    summary["tail_pct"] = pct
    summary["tail"] = percentile(samples, pct)
    half = n // 2
    if half * (100.0 - pct) / 100.0 >= MIN_BEYOND:
        first = percentile(samples[:half], pct)
        second = percentile(samples[half:], pct)
        summary["tail_repeats"] = abs(first - second) <= 0.1 * max(first, second)
    return summary


def q_errors(estimates: np.ndarray, truths: np.ndarray, floor: float = Q_ERROR_FLOOR) -> np.ndarray:
    """Per-query ``max(e, t) / min(e, t)`` over selectivities floored at ``floor``."""
    est = np.maximum(np.asarray(estimates, dtype=float), floor)
    tru = np.maximum(np.asarray(truths, dtype=float), floor)
    return np.maximum(est, tru) / np.minimum(est, tru)


def mismatches(served: np.ndarray, reference: np.ndarray, tolerance: float = 1e-9) -> int:
    """How many served answers differ from the reference by more than ``tolerance``.

    A shape mismatch makes every reference answer count as wrong; NaN never
    matches.
    """
    served = np.asarray(served, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if served.shape != reference.shape:
        return int(max(reference.size, 1))
    return int(np.count_nonzero(~(np.abs(served - reference) <= tolerance)))
