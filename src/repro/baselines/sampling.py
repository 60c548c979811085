"""Sampling-based selectivity estimators.

* :class:`SamplingEstimator` — a uniform random sample of the relation is
  retained; the selectivity of a predicate is the fraction of sample rows
  that satisfy it.  Unbiased but with variance ``p(1-p)/m`` for sample size
  ``m``, which is what makes it unreliable for low-selectivity queries — the
  behaviour Fig. 3 (error vs. query volume) demonstrates.
* :class:`ReservoirSamplingEstimator` — the streaming variant: the sample is
  maintained with a (optionally age-biased) reservoir so it can follow an
  insert stream and, with the decayed reservoir, concept drift.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.estimator import (
    FLOAT_BYTES,
    SelectivityEstimator,
    StreamingEstimator,
    register_estimator,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table
from repro.stream.reservoir import DecayedReservoirSampler, ReservoirSampler

__all__ = ["SamplingEstimator", "ReservoirSamplingEstimator"]


def _weighted_sample_merge(
    row_blocks: Sequence[np.ndarray],
    block_weights: Sequence[float],
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a ``size``-row sample from pooled per-shard samples.

    Each block is a uniform sample of one shard; a block row represents
    ``shard_rows / block_rows`` stream rows, so drawing without replacement
    with those per-row weights yields a (statistically, not bitwise) uniform
    sample of the union — the standard mergeable-sample construction.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in row_blocks]
    kept = [
        (block, weight / block.shape[0])
        for block, weight in zip(blocks, block_weights)
        if block.shape[0] and weight > 0
    ]
    if not kept:
        width = max((b.shape[1] for b in blocks), default=0)
        return np.empty((0, width))
    pool = np.concatenate([block for block, _ in kept], axis=0)
    weights = np.concatenate(
        [np.full(block.shape[0], row_weight) for block, row_weight in kept]
    )
    if pool.shape[0] <= size:
        return pool
    index = rng.choice(
        pool.shape[0], size=size, replace=False, p=weights / weights.sum()
    )
    return pool[index]


def _fractions_in_box(rows: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Fraction of ``rows`` inside every box of the ``(n, d)`` bound matrices.

    The ``(block, m)`` containment mask is chunked over queries so memory
    stays bounded for arbitrarily large batches.
    """
    n = lows.shape[0]
    out = np.zeros(n)
    m = rows.shape[0]
    if m == 0:
        return out
    block = max((1 << 21) // m, 1)
    for start in range(0, n, block):
        stop = min(start + block, n)
        inside = np.ones((stop - start, m), dtype=bool)
        for d in range(rows.shape[1]):
            values = rows[:, d]
            inside &= (values[None, :] >= lows[start:stop, d, None]) & (
                values[None, :] <= highs[start:stop, d, None]
            )
        out[start:stop] = np.count_nonzero(inside, axis=1) / m
    return out


@register_estimator("sampling")
class SamplingEstimator(SelectivityEstimator):
    """Uniform random-sample synopsis.

    Parameters
    ----------
    sample_size:
        Number of rows retained.
    seed:
        Sampling seed (reproducibility).
    """

    name = "sampling"

    # True state-merge: per-shard uniform samples pool into a weighted
    # sample of the union.  Statistically uniform, but a different draw than
    # the monolithic rng.choice — a resampling merge, so merge_lossless
    # stays False.
    supports_merge = True

    def __init__(self, sample_size: int = 1000, seed: int | None = 0) -> None:
        super().__init__()
        if sample_size < 1:
            raise InvalidParameterError("sample_size must be positive")
        self.sample_size = int(sample_size)
        self.seed = seed
        self._rows = np.empty((0, 0))

    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "SamplingEstimator":
        columns = self._resolve_columns(table, columns)
        data = table.columns(columns)
        rng = np.random.default_rng(self.seed)
        if data.shape[0] > self.sample_size:
            index = rng.choice(data.shape[0], size=self.sample_size, replace=False)
            self._rows = data[index]
        else:
            self._rows = data.copy()
        self._mark_fitted(columns, table.row_count)
        return self

    @property
    def sample_rows(self) -> np.ndarray:
        """Copy of the retained sample."""
        self._require_fitted()
        return self._rows.copy()

    def merge_state(
        self, shards: Sequence[SelectivityEstimator]
    ) -> "SamplingEstimator":
        peers = self._require_merge_peers(shards)
        rng = np.random.default_rng(self.seed)
        self._rows = _weighted_sample_merge(
            [peer._rows for peer in peers],
            [float(peer.row_count) for peer in peers],
            self.sample_size,
            rng,
        )
        self._mark_fitted(peers[0].columns, sum(peer.row_count for peer in peers))
        return self

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {"sample_size": self.sample_size, "seed": self.seed}

    def _state(self) -> tuple[dict, dict]:
        return {"rows": self._rows}, {}

    def _restore_state(self, arrays, meta) -> None:
        dims = max(len(self._columns), 1)
        self._rows = np.asarray(arrays["rows"], dtype=float).reshape(-1, dims)

    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return _fractions_in_box(self._rows, lows, highs)

    def memory_bytes(self) -> int:
        self._require_fitted()
        return int(self._rows.size * FLOAT_BYTES)


@register_estimator("reservoir_sampling")
class ReservoirSamplingEstimator(StreamingEstimator):
    """Streaming sample synopsis maintained by reservoir sampling.

    Parameters
    ----------
    sample_size:
        Reservoir capacity.
    decay:
        ``False`` keeps a uniform sample of the whole stream (Algorithm R);
        ``True`` uses the age-biased reservoir so the sample — and therefore
        the estimates — track the recent distribution under drift.
    seed:
        Reservoir replacement seed.
    """

    name = "reservoir_sampling"

    # Mergeable like the static sampler: pooled per-shard reservoirs are
    # resampled proportionally to each shard's stream length (statistical,
    # not bitwise).
    supports_merge = True

    def __init__(self, sample_size: int = 1000, decay: bool = False, seed: int | None = 0) -> None:
        super().__init__()
        if sample_size < 1:
            raise InvalidParameterError("sample_size must be positive")
        self.sample_size = int(sample_size)
        self.decay = bool(decay)
        self.seed = seed
        self._reservoir: ReservoirSampler | None = None

    def fit(
        self, table: Table, columns: Sequence[str] | None = None
    ) -> "ReservoirSamplingEstimator":
        columns = self._resolve_columns(table, columns)
        self.start(columns)
        data = table.columns(columns)
        if data.shape[0]:
            self.insert(data)
        self._mark_fitted(columns, table.row_count)
        return self

    def start(self, columns: Sequence[str]) -> "ReservoirSamplingEstimator":
        """Initialise an empty reservoir over ``columns`` (stream-only use)."""
        columns = list(columns)
        if not columns:
            raise InvalidParameterError("at least one column is required")
        sampler_type = DecayedReservoirSampler if self.decay else ReservoirSampler
        self._reservoir = sampler_type(self.sample_size, len(columns), seed=self.seed)
        self._mark_fitted(columns, 0)
        return self

    def insert(self, rows: np.ndarray) -> None:
        self._require_fitted()
        assert self._reservoir is not None
        # The reservoir normalises and validates the batch (empty batches are
        # a no-op); its seen-counter delta is the number of rows accepted.
        before = self._reservoir.seen
        self._reservoir.insert(rows)
        self._row_count += self._reservoir.seen - before

    def merge_state(
        self, shards: Sequence[SelectivityEstimator]
    ) -> "ReservoirSamplingEstimator":
        peers = self._require_merge_peers(shards)
        columns = peers[0].columns
        self.start(columns)
        assert self._reservoir is not None
        rng = np.random.default_rng(self.seed)
        merged_rows = _weighted_sample_merge(
            [
                peer._reservoir.sample()
                if peer._reservoir is not None
                else np.empty((0, len(columns)))
                for peer in peers
            ],
            [
                float(peer._reservoir.seen) if peer._reservoir is not None else 0.0
                for peer in peers
            ],
            self.sample_size,
            rng,
        )
        seen = sum(
            peer._reservoir.seen for peer in peers if peer._reservoir is not None
        )
        self._reservoir.load_state(
            {"rows": merged_rows.reshape(-1, len(columns)), "seen": int(seen)}
        )
        self._mark_fitted(columns, sum(peer.row_count for peer in peers))
        return self

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "decay": self.decay,
            "seed": self.seed,
        }

    def _state(self) -> tuple[dict, dict]:
        if self._reservoir is None:  # unfitted: nothing beyond the config
            return {}, {"reservoir": None}
        reservoir_state = self._reservoir.state_dict()
        arrays = {"rows": reservoir_state.pop("rows")}
        # The remaining entries (stream position + generator state) are plain
        # JSON-able ints, so a restored reservoir continues the stream with
        # the exact replacement decisions the original would have made.
        return arrays, {"reservoir": reservoir_state}

    def _restore_state(self, arrays, meta) -> None:
        if meta.get("reservoir") is None:
            self._reservoir = None
            return
        sampler_type = DecayedReservoirSampler if self.decay else ReservoirSampler
        self._reservoir = sampler_type(
            self.sample_size, max(len(self._columns), 1), seed=self.seed
        )
        self._reservoir.load_state({**meta["reservoir"], "rows": arrays["rows"]})

    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        assert self._reservoir is not None
        return _fractions_in_box(self._reservoir.sample(), lows, highs)

    def memory_bytes(self) -> int:
        self._require_fitted()
        assert self._reservoir is not None
        return int(self._reservoir.capacity * self._reservoir.dimensions * FLOAT_BYTES)
