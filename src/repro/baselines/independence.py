"""Attribute-value-independence (AVI) parametric baseline.

:class:`IndependenceEstimator` is the cheapest synopsis a system can keep:
per attribute it stores only the minimum and maximum (and optionally assumes
a normal distribution from the mean and standard deviation).  Selectivities
are the product of per-attribute interval fractions under the chosen
per-attribute model — the textbook "System R" style estimate.  It serves as
the floor baseline in the accuracy experiments and as the "bad estimator"
in the optimizer-impact experiment (Fig. 8).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import special

from repro.core.errors import InvalidParameterError
from repro.core.estimator import FLOAT_BYTES, SelectivityEstimator, register_estimator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table

__all__ = ["IndependenceEstimator"]


@register_estimator("independence")
class IndependenceEstimator(SelectivityEstimator):
    """Uniform- or normal-per-attribute AVI estimator.

    Parameters
    ----------
    model:
        ``"uniform"`` assumes each attribute is uniform on ``[min, max]``;
        ``"normal"`` assumes a normal distribution with the column's mean and
        standard deviation.
    """

    name = "independence"

    # State-merge via sufficient statistics: min/max combine exactly, the
    # mean/std combine through weighted moments.  The moment recombination
    # differs from a single-pass np.mean/np.std only in float summation
    # order, so the merge is exact up to rounding — not bitwise.
    supports_merge = True
    merge_lossless = True

    def __init__(self, model: str = "uniform") -> None:
        super().__init__()
        if model not in ("uniform", "normal"):
            raise InvalidParameterError("model must be 'uniform' or 'normal'")
        self.model = model
        self._low: dict[str, float] = {}
        self._high: dict[str, float] = {}
        self._mean: dict[str, float] = {}
        self._std: dict[str, float] = {}

    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "IndependenceEstimator":
        columns = self._resolve_columns(table, columns)
        self._low, self._high, self._mean, self._std = {}, {}, {}, {}
        for column in columns:
            stats = table.stats(column)
            self._low[column] = stats.minimum if stats.count else 0.0
            self._high[column] = stats.maximum if stats.count else 1.0
            self._mean[column] = stats.mean if stats.count else 0.5
            self._std[column] = stats.std if stats.count and stats.std > 0 else 1e-9
        self._mark_fitted(columns, table.row_count)
        return self

    def merge_state(
        self, shards: Sequence[SelectivityEstimator]
    ) -> "IndependenceEstimator":
        peers = self._require_merge_peers(shards)
        columns = peers[0].columns
        populated = [p for p in peers if p.row_count > 0]
        weights = np.array([p.row_count for p in populated], dtype=float)
        total = weights.sum()
        self._low, self._high, self._mean, self._std = {}, {}, {}, {}
        for column in columns:
            if total <= 0:
                self._low[column], self._high[column] = 0.0, 1.0
                self._mean[column], self._std[column] = 0.5, 1e-9
                continue
            self._low[column] = min(p._low[column] for p in populated)
            self._high[column] = max(p._high[column] for p in populated)
            means = np.array([p._mean[column] for p in populated])
            stds = np.array([p._std[column] for p in populated])
            mean = float((weights * means).sum() / total)
            # E[x^2] combines linearly; recover the pooled std from it.
            second = float((weights * (stds**2 + means**2)).sum() / total)
            std = float(np.sqrt(max(second - mean**2, 0.0)))
            self._mean[column] = mean
            self._std[column] = std if std > 0 else 1e-9
        self._mark_fitted(columns, int(total))
        return self

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {"model": self.model}

    def _state(self) -> tuple[dict, dict]:
        columns = self._columns
        arrays = {
            "low": np.array([self._low[c] for c in columns], dtype=float),
            "high": np.array([self._high[c] for c in columns], dtype=float),
            "mean": np.array([self._mean[c] for c in columns], dtype=float),
            "std": np.array([self._std[c] for c in columns], dtype=float),
        }
        return arrays, {}

    def _restore_state(self, arrays, meta) -> None:
        columns = self._columns
        self._low = {c: float(arrays["low"][i]) for i, c in enumerate(columns)}
        self._high = {c: float(arrays["high"][i]) for i, c in enumerate(columns)}
        self._mean = {c: float(arrays["mean"][i]) for i, c in enumerate(columns)}
        self._std = {c: float(arrays["std"][i]) for i, c in enumerate(columns)}

    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        # AVI: product of per-attribute fractions; attributes no query
        # constrains contribute a factor of exactly 1 and are skipped.
        selectivity = np.ones(lows.shape[0])
        for d, column in enumerate(self._columns):
            if np.isneginf(lows[:, d]).all() and np.isposinf(highs[:, d]).all():
                continue
            selectivity *= self._attribute_fractions(column, lows[:, d], highs[:, d])
        return selectivity

    def _attribute_fractions(
        self, attribute: str, lows: np.ndarray, highs: np.ndarray
    ) -> np.ndarray:
        if self.model == "uniform":
            domain_low = self._low[attribute]
            domain_high = self._high[attribute]
            width = domain_high - domain_low
            if width <= 0:
                fractions = ((lows <= domain_low) & (domain_low <= highs)).astype(float)
            else:
                covered = np.minimum(highs, domain_high) - np.maximum(lows, domain_low)
                fractions = np.maximum(covered, 0.0) / width
        else:
            mean = self._mean[attribute]
            std = self._std[attribute]
            fractions = special.ndtr((highs - mean) / std) - special.ndtr(
                (lows - mean) / std
            )
        return np.where(highs < lows, 0.0, fractions)

    def memory_bytes(self) -> int:
        self._require_fitted()
        per_attribute = 4  # min, max, mean, std
        return int(per_attribute * len(self._columns) * FLOAT_BYTES)
