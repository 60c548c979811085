"""Query-feedback self-tuning for selectivity estimators.

When the execution engine runs a query it observes the *true* cardinality for
free.  :class:`FeedbackAdaptiveEstimator` wraps any base synopsis and uses a
bounded log of such observations to correct future estimates:

* **Region corrections** — every feedback observation stores the queried box,
  the truth and the base estimate at that time.  A new query's base estimate
  is multiplied by a geometric blend of the correction ratios of overlapping
  feedback regions, weighted by box overlap and recency.  This is the same
  mechanism self-tuning histograms (STGrid / STHoles) use, applied on top of
  a density model.
* **Global bias correction** — a running (exponentially-decayed) mean of the
  signed log error rescales every estimate, removing systematic over- or
  under-smoothing bias of the base model.

The feedback log is bounded: when it exceeds ``max_regions`` the oldest and
lowest-weight entries are evicted, so the synopsis stays within its space
budget no matter how long the workload runs.

Estimation cost: the base-model half of every batch flows through the wrapped
estimator's ``estimate_batch`` and therefore through the query fast path of
:mod:`repro.core.fastpath` whenever the base is a kernel-family synopsis
(inside :func:`~repro.core.fastpath.fastpath_disabled` it answers on the
dense reference path).  The correction half keeps its own region-overlap
loop — box intersection, not CDF work — but the feedback-log arrays it
consumes are cached behind a staleness counter (``feedback_count``) instead
of being re-stacked from the record deque on every batch.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.estimator import (
    FLOAT_BYTES,
    FeedbackEstimator,
    SelectivityEstimator,
    register_estimator,
)
from repro.core.kde import KDESelectivityEstimator
from repro.core.resolve import resolve_estimator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table
from repro.workload.queries import CompiledQueries, RangeQuery

__all__ = ["FeedbackAdaptiveEstimator", "FeedbackRecord"]

_EPSILON = 1e-6


class FeedbackRecord:
    """One feedback observation: the query box, truth and base estimate."""

    __slots__ = ("lows", "highs", "true_fraction", "base_estimate", "age")

    def __init__(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        true_fraction: float,
        base_estimate: float,
    ) -> None:
        self.lows = lows
        self.highs = highs
        self.true_fraction = float(true_fraction)
        self.base_estimate = float(base_estimate)
        self.age = 0

    @property
    def log_ratio(self) -> float:
        """Signed log correction ``log(truth / estimate)`` with smoothing."""
        return math.log(
            (self.true_fraction + _EPSILON) / (self.base_estimate + _EPSILON)
        )


@register_estimator("feedback_ade")
class FeedbackAdaptiveEstimator(FeedbackEstimator):
    """Wrap a base synopsis with query-feedback-driven corrections.

    Parameters
    ----------
    base:
        The wrapped :class:`SelectivityEstimator` — an instance, a registry
        name, or a ``{"name": ..., **params}`` configuration mapping (which
        is how snapshot and describe round-trips reconstruct the wrapper).
        Defaults to a :class:`~repro.core.kde.KDESelectivityEstimator` with a
        512-row sample, which matches the configuration used in the
        evaluation.
    max_regions:
        Maximum number of feedback observations retained.
    learning_rate:
        Strength of region corrections in ``[0, 1]``; 1 applies the full
        correction of perfectly-overlapping feedback.
    recency_halflife:
        Number of feedback observations after which an old record's influence
        halves.  Lets the corrections follow workload / data drift.
    bias_learning_rate:
        Step size of the global bias correction.
    """

    name = "feedback_ade"

    def __init__(
        self,
        base: SelectivityEstimator | Mapping[str, Any] | str | None = None,
        max_regions: int = 256,
        learning_rate: float = 0.8,
        recency_halflife: float = 200.0,
        bias_learning_rate: float = 0.05,
    ) -> None:
        super().__init__()
        if not 0.0 <= learning_rate <= 1.0:
            raise InvalidParameterError("learning_rate must lie in [0, 1]")
        if max_regions < 1:
            raise InvalidParameterError("max_regions must be positive")
        if recency_halflife <= 0:
            raise InvalidParameterError("recency_halflife must be positive")
        if bias_learning_rate < 0:
            raise InvalidParameterError("bias_learning_rate must be non-negative")
        self.base = resolve_estimator(
            base, default=lambda: KDESelectivityEstimator(sample_size=512), what="base"
        )
        self.max_regions = int(max_regions)
        self.learning_rate = float(learning_rate)
        self.recency_halflife = float(recency_halflife)
        self.bias_learning_rate = float(bias_learning_rate)

        self._records: Deque[FeedbackRecord] = deque()
        self._log_bias = 0.0
        self._feedback_count = 0
        self._domain_low = np.empty(0)
        self._domain_high = np.empty(0)
        # Cached (feedback_count, lows, highs, log_ratios, recency, volumes)
        # region arrays: every feedback() bumps the count, so the stacked
        # views are rebuilt lazily instead of per estimate_batch call.
        self._region_cache: tuple | None = None

    # -- lifecycle ---------------------------------------------------------
    def fit(
        self, table: Table, columns: Sequence[str] | None = None
    ) -> "FeedbackAdaptiveEstimator":
        columns = self._resolve_columns(table, columns)
        self.base.fit(table, columns)
        domain = table.domain(columns)
        self._domain_low = np.array([domain[c][0] for c in columns], dtype=float)
        self._domain_high = np.array([domain[c][1] for c in columns], dtype=float)
        self._records.clear()
        self._log_bias = 0.0
        self._feedback_count = 0
        self._region_cache = None
        self._mark_fitted(columns, table.row_count)
        return self

    def memory_bytes(self) -> int:
        self._require_fitted()
        record_floats = len(self._records) * (2 * len(self._columns) + 2)
        return int(self.base.memory_bytes() + record_floats * FLOAT_BYTES + 2 * FLOAT_BYTES)

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {
            "base": self.base.config(),
            "max_regions": self.max_regions,
            "learning_rate": self.learning_rate,
            "recency_halflife": self.recency_halflife,
            "bias_learning_rate": self.bias_learning_rate,
        }

    def _state(self) -> tuple[dict, dict]:
        """Own state plus the wrapped estimator's snapshot, namespaced.

        The base estimator's arrays are merged in under ``base::`` keys and
        its (JSON-able) snapshot envelope travels in ``meta["base"]``, so one
        snapshot file holds the whole wrapper.
        """
        dims = max(len(self._columns), 1)
        if self._records:
            record_lows = np.stack([r.lows for r in self._records])
            record_highs = np.stack([r.highs for r in self._records])
            truths = np.array([r.true_fraction for r in self._records])
            bases = np.array([r.base_estimate for r in self._records])
            ages = np.array([r.age for r in self._records], dtype=np.int64)
        else:
            record_lows = np.empty((0, dims))
            record_highs = np.empty((0, dims))
            truths = np.empty(0)
            bases = np.empty(0)
            ages = np.empty(0, dtype=np.int64)
        arrays = {
            "record_lows": record_lows,
            "record_highs": record_highs,
            "record_truths": truths,
            "record_bases": bases,
            "record_ages": ages,
            "domain_low": self._domain_low,
            "domain_high": self._domain_high,
        }
        base_state = self.base.state_dict()
        for key, value in base_state.pop("arrays").items():
            arrays[f"base::{key}"] = value
        meta = {
            "log_bias": self._log_bias,
            "feedback_count": self._feedback_count,
            "base": base_state,
        }
        return arrays, meta

    def _restore_state(self, arrays, meta) -> None:
        self._domain_low = np.asarray(arrays["domain_low"], dtype=float)
        self._domain_high = np.asarray(arrays["domain_high"], dtype=float)
        self._log_bias = float(meta["log_bias"])
        self._feedback_count = int(meta["feedback_count"])
        dims = max(len(self._columns), 1)
        lows = np.asarray(arrays["record_lows"], dtype=float).reshape(-1, dims)
        highs = np.asarray(arrays["record_highs"], dtype=float).reshape(-1, dims)
        truths = np.asarray(arrays["record_truths"], dtype=float)
        bases = np.asarray(arrays["record_bases"], dtype=float)
        ages = np.asarray(arrays["record_ages"])
        self._records = deque()
        for i in range(truths.size):
            record = FeedbackRecord(
                lows[i].copy(), highs[i].copy(), float(truths[i]), float(bases[i])
            )
            record.age = int(ages[i])
            self._records.append(record)
        self._region_cache = None
        base_state = dict(meta["base"])
        base_state["arrays"] = {
            key[len("base::"):]: value
            for key, value in arrays.items()
            if key.startswith("base::")
        }
        self.base.load_state(base_state)

    # -- feedback -------------------------------------------------------------
    def feedback(self, query: RangeQuery, true_fraction: float) -> None:
        """Record the observed true selectivity of an executed query."""
        self._require_fitted()
        if not 0.0 <= true_fraction <= 1.0:
            raise InvalidParameterError("true_fraction must lie in [0, 1]")
        lows, highs = self._query_bounds(query)
        base_estimate = self.base.estimate(query)
        record = FeedbackRecord(
            self._clip_box(lows), self._clip_box(highs), true_fraction, base_estimate
        )
        for existing in self._records:
            existing.age += 1
        self._records.append(record)
        while len(self._records) > self.max_regions:
            self._evict_one()
        # Global bias: exponentially-decayed mean of the signed log error.
        error = math.log((base_estimate + _EPSILON) / (true_fraction + _EPSILON))
        self._log_bias = (1.0 - self.bias_learning_rate) * self._log_bias + (
            self.bias_learning_rate * error
        )
        self._feedback_count += 1

    def _evict_one(self) -> None:
        """Evict the least useful record: oldest among the lowest-influence ones."""
        if not self._records:
            return
        weights = [self._recency_weight(r) for r in self._records]
        victim = int(np.argmin(weights))
        del self._records[victim]

    def _recency_weight(self, record: FeedbackRecord) -> float:
        return 0.5 ** (record.age / self.recency_halflife)

    @property
    def feedback_count(self) -> int:
        """Total number of feedback observations seen."""
        return self._feedback_count

    @property
    def record_count(self) -> int:
        """Number of feedback regions currently retained."""
        return len(self._records)

    # -- estimation -------------------------------------------------------------
    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Base-model batch estimates rescaled by bias and region corrections."""
        base = self.base.estimate_batch(CompiledQueries(self._columns, lows, highs))
        corrected = base * math.exp(-self._log_bias * self.learning_rate)
        corrected *= self._region_corrections(
            self._clip_box(lows), self._clip_box(highs)
        )
        return corrected

    def _clip_box(self, bounds: np.ndarray) -> np.ndarray:
        """Clip query bounds to the data domain so box volumes are finite."""
        if self._domain_low.size == 0:
            return bounds
        return np.clip(bounds, self._domain_low, self._domain_high)

    def _region_corrections(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Geometric blend of the correction ratios of overlapping feedback regions.

        Vectorised over both queries and records: the ``(block, R, d)``
        intersection tensor is chunked over queries so memory stays bounded.
        """
        n = lows.shape[0]
        if not self._records:
            return np.ones(n)
        record_lows, record_highs, log_ratios, recency, record_volumes = (
            self._region_arrays()
        )
        query_volumes = self._box_volumes(lows, highs)

        records = record_lows.shape[0]
        dims = record_lows.shape[1]
        factors = np.empty(n)
        block = max((1 << 20) // max(records * dims, 1), 1)
        for start in range(0, n, block):
            stop = min(start + block, n)
            inter_lows = np.maximum(lows[start:stop, None, :], record_lows[None, :, :])
            inter_highs = np.minimum(highs[start:stop, None, :], record_highs[None, :, :])
            disjoint = np.any(inter_highs < inter_lows, axis=2)
            overlap = np.where(disjoint, 0.0, self._box_volumes(inter_lows, inter_highs))
            union = query_volumes[start:stop, None] + record_volumes[None, :] - overlap
            similarity = np.where(union > 0.0, overlap / np.where(union > 0.0, union, 1.0), 1.0)
            weight = np.where(overlap > 0.0, similarity * recency[None, :], 0.0)
            total_weight = weight.sum(axis=1)
            weighted_log = weight @ log_ratios
            safe_total = np.where(total_weight > 0.0, total_weight, 1.0)
            blended = weighted_log / safe_total
            # Confidence grows with the amount of overlapping evidence.
            confidence = np.minimum(total_weight, 1.0) * self.learning_rate
            factors[start:stop] = np.where(
                total_weight > 0.0, np.exp(confidence * blended), 1.0
            )
        return factors

    def _region_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stacked feedback-log arrays, cached until the next ``feedback()``.

        ``feedback()`` is the only mutator of the record deque (append, ages,
        eviction) and always increments ``_feedback_count``, which therefore
        doubles as the staleness counter of this cache.
        """
        cached = self._region_cache
        if cached is not None and cached[0] == self._feedback_count:
            return cached[1:]
        record_lows = np.stack([r.lows for r in self._records])
        record_highs = np.stack([r.highs for r in self._records])
        log_ratios = np.array([r.log_ratio for r in self._records])
        recency = np.array([self._recency_weight(r) for r in self._records])
        record_volumes = self._box_volumes(record_lows, record_highs)
        self._region_cache = (
            self._feedback_count,
            record_lows,
            record_highs,
            log_ratios,
            recency,
            record_volumes,
        )
        return record_lows, record_highs, log_ratios, recency, record_volumes

    def _box_volumes(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Normalised box volumes over the trailing attribute axis."""
        widths = np.maximum(highs - lows, 0.0)
        # Degenerate (point) constraints contribute a small positive width so
        # point queries can still match feedback on the same point.
        domain_width = np.maximum(self._domain_high - self._domain_low, 1e-12)
        widths = np.maximum(widths, 1e-6 * domain_width)
        return np.prod(widths / domain_width, axis=-1)
