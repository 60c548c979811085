"""One-dimensional histogram synopses and the AVI combiner.

These are the classical selectivity-estimation baselines every database
system ships:

* :class:`EquiWidthHistogram` — fixed-width buckets per attribute.
* :class:`EquiDepthHistogram` — quantile (equal row count) buckets per
  attribute; the standard choice for skewed data.

Both keep one 1-D histogram per fitted attribute and combine attributes with
the *attribute value independence* (AVI) assumption: the selectivity of a
conjunctive predicate is the product of per-attribute selectivities.  Inside
a bucket the *uniform spread* assumption applies: a query that covers part of
a bucket receives a proportional share of the bucket's rows.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.estimator import FLOAT_BYTES, SelectivityEstimator, register_estimator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table

__all__ = ["Histogram1D", "EquiWidthHistogram", "EquiDepthHistogram"]


class Histogram1D:
    """A 1-D bucketed frequency summary of one numeric attribute.

    Parameters
    ----------
    edges:
        Monotonically non-decreasing bucket boundaries (``buckets + 1`` values).
    counts:
        Row count per bucket (``len(edges) - 1`` values).
    """

    __slots__ = ("edges", "counts", "total", "_safe_widths", "_point_bucket", "_any_point")

    def __init__(self, edges: np.ndarray, counts: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=float)
        counts = np.asarray(counts, dtype=float)
        if edges.size != counts.size + 1:
            raise InvalidParameterError("edges must have exactly one more entry than counts")
        if np.any(np.diff(edges) < 0):
            raise InvalidParameterError("bucket edges must be non-decreasing")
        if np.any(counts < 0):
            raise InvalidParameterError("bucket counts must be non-negative")
        self.edges = edges
        self.counts = counts
        self.total = float(counts.sum())
        # Static per-bucket geometry, hoisted out of selectivity_batch.
        widths = edges[1:] - edges[:-1]
        self._point_bucket = widths <= 0
        self._any_point = bool(self._point_bucket.any())
        self._safe_widths = np.where(widths > 0, widths, 1.0)

    @property
    def bucket_count(self) -> int:
        """Number of buckets."""
        return int(self.counts.size)

    def selectivity(self, low: float, high: float) -> float:
        """Fraction of rows in ``[low, high]`` under the uniform-spread assumption."""
        return float(self.selectivity_batch(np.array([low]), np.array([high]))[0])

    def selectivity_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vector of selectivities for ``(n,)`` arrays of interval bounds."""
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if self.total <= 0:
            return np.zeros(lows.shape[0])
        bucket_lows = self.edges[:-1]
        bucket_highs = self.edges[1:]
        covered = np.minimum(bucket_highs[None, :], highs[:, None])
        covered -= np.maximum(bucket_lows[None, :], lows[:, None])
        np.clip(covered, 0.0, None, out=covered)
        fraction = covered
        fraction /= self._safe_widths[None, :]
        if self._any_point:
            # Degenerate buckets (repeated edges, e.g. heavy duplicates in
            # equi-depth histograms) hold all their mass at a single value.
            point_bucket = self._point_bucket
            fraction[:, point_bucket] = 0.0
            point_hit = (
                point_bucket[None, :]
                & (bucket_lows[None, :] >= lows[:, None])
                & (bucket_lows[None, :] <= highs[:, None])
            )
            fraction = np.where(point_hit, 1.0, fraction)
        np.clip(fraction, 0.0, 1.0, out=fraction)
        result = fraction @ self.counts / self.total
        return np.where(highs < lows, 0.0, result)

    def density(self, points: np.ndarray) -> np.ndarray:
        """Histogram density estimate at ``points`` (for MISE comparisons)."""
        points = np.asarray(points, dtype=float)
        widths = np.maximum(self.edges[1:] - self.edges[:-1], 1e-12)
        heights = self.counts / (max(self.total, 1.0) * widths)
        index = np.clip(np.searchsorted(self.edges, points, side="right") - 1, 0, self.counts.size - 1)
        inside = (points >= self.edges[0]) & (points <= self.edges[-1])
        return np.where(inside, heights[index], 0.0)

    def memory_floats(self) -> int:
        """Number of stored floating-point values."""
        return int(self.edges.size + self.counts.size)


class _PerAttributeHistogramEstimator(SelectivityEstimator):
    """Shared machinery of the AVI histogram estimators.

    Both subclasses are true state-merge synopses: the sharding coordinator
    computes global bucket edges once (:meth:`shard_frame`), every shard
    counts its rows over those shared edges (:meth:`fit_shard`), and
    :meth:`merge_state` sums the integer bucket counts — float-exact, so the
    merged histogram reproduces a monolithic fit bitwise.
    """

    supports_merge = True
    merge_lossless = True

    def __init__(self, buckets: int = 64) -> None:
        super().__init__()
        if buckets < 1:
            raise InvalidParameterError("buckets must be positive")
        self.buckets = int(buckets)
        self._histograms: dict[str, Histogram1D] = {}

    @abstractmethod
    def _frame_edges(self, values: np.ndarray) -> np.ndarray:
        """Bucket edges for one attribute (equi-width vs equi-depth)."""

    def _build_histogram(
        self, values: np.ndarray, edges: np.ndarray | None = None
    ) -> Histogram1D:
        """Count ``values`` into a histogram (edges given, or derived)."""
        values = np.asarray(values, dtype=float)
        if edges is None:
            edges = self._frame_edges(values)
        if values.size == 0:
            return Histogram1D(edges, np.zeros(edges.size - 1))
        counts, _ = np.histogram(values, bins=edges)
        counts = counts.astype(float)
        # np.histogram drops values equal to an internal repeated edge into
        # the right bucket, and (under a shared frame) shard values may sit
        # exactly on the outermost edges; recompute the total so no row
        # inside the frame is lost.
        inside = np.count_nonzero((values >= edges[0]) & (values <= edges[-1]))
        missing = inside - counts.sum()
        if missing > 0 and counts.size:
            counts[-1] += missing
        # np.histogram drops values sitting exactly on a repeated internal
        # edge into the regular bucket to its right, but the read side
        # (Histogram1D.selectivity_batch) serves a degenerate bucket's mass
        # at its single point value.  Move the exact-duplicate mass into the
        # point bucket so point queries — notably dictionary codes from the
        # typed predicate lowering — see it.  Shards moving their own exact
        # counts under a shared frame still sum to the monolithic build.
        lefts = edges[:-1]
        point = edges[1:] <= lefts
        if point.any():
            for value in np.unique(lefts[point]):
                j = min(
                    int(np.searchsorted(edges, value, side="right")) - 1,
                    counts.size - 1,
                )
                if point[j]:
                    continue  # closed right end: mass already in its point bucket
                exact = float(np.count_nonzero(values == value))
                if exact <= 0:
                    continue
                k = int(np.argmax(point & (lefts == value)))
                moved = min(exact, counts[j])
                counts[j] -= moved
                counts[k] += moved
        return Histogram1D(edges, counts)

    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "SelectivityEstimator":
        return self.fit_shard(table, columns, frame=None)

    def fit_shard(
        self,
        table: Table,
        columns: Sequence[str] | None = None,
        frame: "Mapping[str, np.ndarray] | None" = None,
    ) -> "SelectivityEstimator":
        columns = self._resolve_columns(table, columns)
        frame = frame or {}
        self._histograms = {}
        for column in columns:
            edges = frame.get(f"edges::{column}")
            self._histograms[column] = self._build_histogram(
                table.column(column), None if edges is None else np.asarray(edges)
            )
        self._mark_fitted(columns, table.row_count)
        return self

    def shard_frame(
        self, table: Table, columns: Sequence[str]
    ) -> dict[str, np.ndarray]:
        return {
            f"edges::{column}": self._frame_edges(
                np.asarray(table.column(column), dtype=float)
            )
            for column in columns
        }

    def merge_state(self, shards: Sequence[SelectivityEstimator]) -> "SelectivityEstimator":
        peers = self._require_merge_peers(shards)
        columns = peers[0].columns
        merged: dict[str, Histogram1D] = {}
        for column in columns:
            histograms = [peer.histogram(column) for peer in peers]
            edges = histograms[0].edges
            for histogram in histograms[1:]:
                if not np.array_equal(histogram.edges, edges):
                    raise InvalidParameterError(
                        f"shard histograms over {column!r} were not built against "
                        "a common frame (bucket edges differ)"
                    )
            counts = np.sum([histogram.counts for histogram in histograms], axis=0)
            merged[column] = Histogram1D(edges, counts)
        self._histograms = merged
        self._mark_fitted(columns, sum(peer.row_count for peer in peers))
        return self

    def histogram(self, column: str) -> Histogram1D:
        """The per-attribute histogram built for ``column``."""
        self._require_fitted()
        return self._histograms[column]

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {"buckets": self.buckets}

    def _state(self) -> tuple[dict, dict]:
        arrays: dict[str, np.ndarray] = {}
        for i, column in enumerate(self._columns):
            histogram = self._histograms[column]
            arrays[f"h{i}_edges"] = histogram.edges
            arrays[f"h{i}_counts"] = histogram.counts
        return arrays, {}

    def _restore_state(self, arrays, meta) -> None:
        self._histograms = {
            column: Histogram1D(arrays[f"h{i}_edges"], arrays[f"h{i}_counts"])
            for i, column in enumerate(self._columns)
        }

    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        # AVI: product of per-attribute selectivities.  Attributes no query
        # constrains carry (-inf, +inf) bounds and a factor of exactly 1, so
        # their coverage matrices need not be built at all.
        selectivity = np.ones(lows.shape[0])
        for d, column in enumerate(self._columns):
            if np.isneginf(lows[:, d]).all() and np.isposinf(highs[:, d]).all():
                continue
            selectivity *= self._histograms[column].selectivity_batch(lows[:, d], highs[:, d])
        return selectivity

    def memory_bytes(self) -> int:
        self._require_fitted()
        floats = sum(h.memory_floats() for h in self._histograms.values())
        return int(floats * FLOAT_BYTES)


@register_estimator("equiwidth")
class EquiWidthHistogram(_PerAttributeHistogramEstimator):
    """Equi-width histogram per attribute, combined with the AVI assumption."""

    name = "equiwidth"

    def _frame_edges(self, values: np.ndarray) -> np.ndarray:
        if values.size == 0:
            return np.linspace(0.0, 1.0, self.buckets + 1)
        low = float(values.min())
        high = float(values.max())
        if high <= low:
            high = low + 1.0
        return np.linspace(low, high, self.buckets + 1)


@register_estimator("equidepth")
class EquiDepthHistogram(_PerAttributeHistogramEstimator):
    """Equi-depth (quantile) histogram per attribute with the AVI assumption."""

    name = "equidepth"

    def _frame_edges(self, values: np.ndarray) -> np.ndarray:
        if values.size == 0:
            return np.linspace(0.0, 1.0, self.buckets + 1)
        quantiles = np.linspace(0.0, 100.0, self.buckets + 1)
        edges = np.percentile(values, quantiles)
        return np.maximum.accumulate(edges)
