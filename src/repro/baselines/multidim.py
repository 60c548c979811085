"""Multi-dimensional grid histogram synopsis.

:class:`GridHistogram` partitions the joint domain of the fitted attributes
into a regular grid of cells (equi-width per attribute) and stores one count
per cell.  It is the simplest multi-dimensional histogram (the structure
MHIST and friends improve upon) and captures attribute correlation that the
AVI estimators miss — at a space cost exponential in the dimensionality,
which is precisely the trade-off the dimensionality experiment (Fig. 2)
demonstrates.

Cells are stored densely as a flat numpy array; ``cells_per_dim`` is derived
from a byte budget when ``budget_bytes`` is given.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import BudgetError, InvalidParameterError
from repro.core.estimator import FLOAT_BYTES, SelectivityEstimator, register_estimator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table

__all__ = ["GridHistogram", "grid_axis_coverage", "grid_box_masses"]


def grid_axis_coverage(
    lows: np.ndarray,
    highs: np.ndarray,
    domain_low: float,
    domain_high: float,
    resolution: int,
) -> np.ndarray:
    """Fraction of every equi-width grid slice covered by each query interval.

    ``lows`` / ``highs`` are ``(n,)`` per-query bounds along one axis; the
    result is ``(n, resolution)`` under the uniform-spread-inside-a-cell
    assumption.  Shared by the dense grid and the self-tuning histogram.
    """
    edges = np.linspace(domain_low, domain_high, resolution + 1)
    cell_low = edges[:-1]
    cell_high = edges[1:]
    width = np.maximum(cell_high - cell_low, 1e-300)
    covered = np.clip(
        np.minimum(cell_high[None, :], highs[:, None])
        - np.maximum(cell_low[None, :], lows[:, None]),
        0.0,
        None,
    )
    return np.clip(covered / width[None, :], 0.0, 1.0)


def grid_box_masses(
    cells: np.ndarray,
    domain_low: np.ndarray,
    domain_high: np.ndarray,
    resolution: int,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Weighted cell mass inside every query box of a dense grid histogram.

    ``cells`` is the flat ``resolution**d`` frequency vector; ``lows`` /
    ``highs`` are ``(n, d)`` bound matrices.  Contracts one axis at a time;
    the ``(block, resolution**(d-1))`` intermediate is chunked over queries
    so memory stays bounded.
    """
    n, dims = lows.shape
    coverage = [
        grid_axis_coverage(
            lows[:, d], highs[:, d], float(domain_low[d]), float(domain_high[d]), resolution
        )
        for d in range(dims)
    ]
    grid = cells.reshape((resolution,) * dims)
    out = np.empty(n)
    block = max((1 << 22) // max(resolution ** max(dims - 1, 0), 1), 1)
    for start in range(0, n, block):
        stop = min(start + block, n)
        acc = np.einsum("ni,i...->n...", coverage[0][start:stop], grid)
        for d in range(1, dims):
            acc = np.einsum("ni,ni...->n...", coverage[d][start:stop], acc)
        out[start:stop] = acc
    return out


@register_estimator("grid")
class GridHistogram(SelectivityEstimator):
    """Dense multi-dimensional equi-width grid histogram.

    Parameters
    ----------
    cells_per_dim:
        Number of grid cells along every attribute.  Mutually exclusive with
        ``budget_bytes``.
    budget_bytes:
        Total space budget; the estimator picks the largest ``cells_per_dim``
        whose dense grid fits within the budget.
    """

    name = "grid"

    # True state-merge: the sharding coordinator pins the grid boundaries on
    # the full table (shard_frame), shards count cells over the shared frame,
    # and merge_state sums the integer cell counts — bitwise-exact vs. a
    # monolithic fit.
    supports_merge = True
    merge_lossless = True

    def __init__(
        self, cells_per_dim: int | None = 16, budget_bytes: int | None = None
    ) -> None:
        super().__init__()
        if budget_bytes is not None:
            cells_per_dim = None
        if cells_per_dim is not None and cells_per_dim < 1:
            raise InvalidParameterError("cells_per_dim must be positive")
        if budget_bytes is not None and budget_bytes < FLOAT_BYTES:
            raise BudgetError("budget_bytes too small for even a single grid cell")
        self.cells_per_dim = cells_per_dim
        self.budget_bytes = budget_bytes

        self._resolution = 0
        self._low = np.empty(0)
        self._high = np.empty(0)
        self._cells = np.empty(0)
        self._total = 0.0

    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "GridHistogram":
        return self.fit_shard(table, columns, frame=None)

    def fit_shard(
        self,
        table: Table,
        columns: Sequence[str] | None = None,
        frame: Mapping[str, np.ndarray] | None = None,
    ) -> "GridHistogram":
        columns = self._resolve_columns(table, columns)
        data = table.columns(columns)
        dims = len(columns)
        self._resolution = self._pick_resolution(dims)
        if frame is not None and "grid::low" in frame:
            self._low = np.asarray(frame["grid::low"], dtype=float)
            self._high = np.asarray(frame["grid::high"], dtype=float)
        elif data.shape[0] == 0:
            self._low = np.zeros(dims)
            self._high = np.ones(dims)
        else:
            self._low, self._high = self._frame_bounds(data)
        if data.shape[0] == 0:
            self._cells = np.zeros(self._resolution**dims)
            self._total = 0.0
            self._mark_fitted(columns, 0)
            return self

        edges = [
            np.linspace(self._low[d], self._high[d], self._resolution + 1) for d in range(dims)
        ]
        counts, _ = np.histogramdd(data, bins=edges)
        self._cells = counts.astype(float).ravel()
        self._total = float(self._cells.sum())
        self._mark_fitted(columns, table.row_count)
        return self

    @staticmethod
    def _frame_bounds(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid boundaries over ``data`` (degenerate spans widened to 1)."""
        low = data.min(axis=0).astype(float)
        high = data.max(axis=0).astype(float)
        span = high - low
        span[span <= 0] = 1.0
        return low, low + span

    def shard_frame(
        self, table: Table, columns: Sequence[str]
    ) -> dict[str, np.ndarray]:
        data = table.columns(list(columns))
        if data.shape[0] == 0:
            return {}
        low, high = self._frame_bounds(data)
        return {"grid::low": low, "grid::high": high}

    def merge_state(self, shards: Sequence[SelectivityEstimator]) -> "GridHistogram":
        peers = self._require_merge_peers(shards)
        first = peers[0]
        populated = [p for p in peers if p._cells.size and p._total > 0] or [first]
        reference = populated[0]
        for peer in populated[1:]:
            if (
                peer._resolution != reference._resolution
                or not np.array_equal(peer._low, reference._low)
                or not np.array_equal(peer._high, reference._high)
            ):
                raise InvalidParameterError(
                    "shard grids were not built against a common frame "
                    "(boundaries or resolution differ)"
                )
        self._resolution = reference._resolution
        self._low = reference._low.copy()
        self._high = reference._high.copy()
        cells = [p._cells for p in peers if p._cells.size == reference._cells.size]
        self._cells = np.sum(cells, axis=0, dtype=float)
        self._total = float(self._cells.sum())
        self._mark_fitted(first.columns, sum(peer.row_count for peer in peers))
        return self

    def _pick_resolution(self, dims: int) -> int:
        if self.cells_per_dim is not None:
            return int(self.cells_per_dim)
        assert self.budget_bytes is not None
        max_cells = self.budget_bytes // FLOAT_BYTES
        resolution = int(math.floor(max_cells ** (1.0 / dims)))
        if resolution < 1:
            raise BudgetError(
                f"budget of {self.budget_bytes} bytes cannot hold a {dims}-dimensional grid"
            )
        return max(resolution, 1)

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {"cells_per_dim": self.cells_per_dim, "budget_bytes": self.budget_bytes}

    def _state(self) -> tuple[dict, dict]:
        arrays = {"low": self._low, "high": self._high, "cells": self._cells}
        meta = {"resolution": self._resolution, "total": self._total}
        return arrays, meta

    def _restore_state(self, arrays, meta) -> None:
        self._low = np.asarray(arrays["low"], dtype=float)
        self._high = np.asarray(arrays["high"], dtype=float)
        self._cells = np.asarray(arrays["cells"], dtype=float)
        self._resolution = int(meta["resolution"])
        self._total = float(meta["total"])

    @property
    def resolution(self) -> int:
        """Cells per dimension chosen at fit time."""
        self._require_fitted()
        return self._resolution

    @property
    def cell_count(self) -> int:
        """Total number of grid cells."""
        self._require_fitted()
        return int(self._cells.size)

    def memory_bytes(self) -> int:
        self._require_fitted()
        boundary_floats = 2 * len(self._columns)
        return int((self._cells.size + boundary_floats) * FLOAT_BYTES)

    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        if self._total <= 0:
            return np.zeros(lows.shape[0])
        masses = grid_box_masses(
            self._cells, self._low, self._high, self._resolution, lows, highs
        )
        return masses / self._total

    def cell_frequencies(self) -> np.ndarray:
        """Grid counts reshaped to ``(resolution,) * dims`` (copy)."""
        self._require_fitted()
        dims = len(self._columns)
        return self._cells.reshape((self._resolution,) * dims).copy()
