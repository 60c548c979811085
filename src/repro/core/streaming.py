"""Streaming adaptive density estimator (the core contribution).

:class:`StreamingADE` maintains a bounded-size mixture of weighted Gaussian
*cluster kernels* over an insert stream.  Each kernel stores a weight, a mean
vector and a per-attribute variance.  New tuples either open a new kernel or
are merged into the nearest existing kernel with a moment-preserving update,
so memory never exceeds the configured budget regardless of stream length.
An optional exponential decay down-weights stale kernels so the model tracks
concept drift; kernels whose weight decays below a pruning threshold are
dropped, freeing budget for the current distribution.

Range selectivities are computed exactly as for a product-Gaussian mixture:
each kernel contributes its weight times the product over attributes of the
normal mass inside the queried interval, where the per-attribute standard
deviation combines the kernel's own spread with a global smoothing bandwidth
(so even freshly created, zero-variance kernels are smoothed).

This is the streaming counterpart of :class:`repro.core.adaptive.AdaptiveKDEEstimator`:
kernels in dense regions accumulate weight and stay narrow, kernels in sparse
regions stay wide — the bandwidth adapts locally through the merge process
itself rather than through explicit Abramson factors.

Bulk-ingestion contract
-----------------------

``insert(rows)`` is the batch-first maintenance entry point.  It is built
around a chunked, vectorized pipeline rather than a per-tuple loop:

* **Chunking.**  Incoming rows are gathered into fixed-size sub-chunks of at
  most ``chunk_size`` tuples (a partial tail stays buffered between calls).
  Each full chunk is folded into the model with a bounded number of numpy
  operations: one nearest-kernel search against the current kernels, one
  grouped moment-preserving merge (``np.add.at`` accumulation of weight /
  Σwx / Σwx² per target kernel), one batched new-kernel creation for rows
  that open kernels (near-duplicate rows are coalesced on a
  ``merge_threshold``-sized grid first), then a single compress-to-budget and
  prune step.
* **Distance searches.**  Both searches of the fold use the max-norm distance
  between bandwidth-scaled means: the nearest kernel of every row, and the
  closest kernel pairs that compaction merges.  From ``_TREE_MIN_KERNELS``
  kernels on, one ``scipy.spatial.cKDTree`` over the scaled means answers
  them; below that crossover, dense distance blocks are cheaper and answer
  them alone.  The tree answers only where its answer provably equals the
  dense one, ties included: a row equally far from its two nearest kernels,
  and a compaction round whose closest pairs the tree's neighbour lists
  cannot order without ties (see :func:`_closest_pairs_tree`), run the dense
  code.  So the synopsis is bit for bit the one the dense code builds.
  ``cKDTree`` holds the GIL while it builds and queries, so shards folding
  on threads take turns in it.
* **Batching invariance.**  Chunk boundaries depend only on the number of
  rows ingested since ``start()`` (and on explicit :meth:`StreamingADE.flush`
  points), never on how the caller sliced the stream into ``insert`` calls.
  Feeding the same rows in the same order therefore yields a bit-identical
  synopsis whether they arrive row-at-a-time or as one huge batch; the
  ingestion-equivalence suite asserts estimates agree to below ``1e-6``.
* **Decay semantics.**  The per-tuple exponential decay of the sequential
  reference path is preserved exactly: a chunk of ``m`` rows scales every
  pre-chunk kernel weight by ``decay**m`` — applied lazily through a global
  scale factor that is renormalised before it can underflow — and row ``i``
  of the chunk enters with weight ``decay**(m-1-i)``, precisely the weight
  it would have retained under per-tuple decay.
* **Buffering.**  Up to ``chunk_size - 1`` rows may sit in the pending
  buffer; every estimation / introspection entry point flushes first, so
  buffering is invisible to callers (an early flush simply closes the
  current sub-chunk at that stream position).
* **Reference path.**  :meth:`StreamingADE.insert_sequential` keeps the
  original per-tuple maintenance loop.  It is the semantic reference the
  bulk path is validated against (same distribution modelled; drift-suite
  accuracy within a few percent) and the baseline of
  ``benchmarks/bench_ingest_throughput.py``.

Sharded union
-------------

A row-weighted mean of kernel mixtures is itself one kernel mixture, so
``StreamingADE`` is a lossless mergeable synopsis (see the mergeable-synopsis
protocol in :mod:`repro.core.estimator`).  :meth:`StreamingADE.merge_state`
flushes the shards and concatenates their kernels, in shard order, into one
*union*: shard ``s``'s stored weights are scaled by ``n_s / W_s`` (its row
count over its stored weight sum, so the lazy decay scale cancels), and each
kernel keeps the std ``sqrt(var + h_s²)`` it has in its own shard, with that
shard's smoothing bandwidth ``h_s``.  The stds are carried, not recomputed:
a union has no bandwidth of its own.  The union therefore answers what the
row-count-weighted :meth:`~repro.core.estimator.SelectivityEstimator.combine_estimates`
of the shards answers, up to summation order, but from one support index and
one fast-path pass per batch.  It is a read-only cache of shard state:
``insert``, ``insert_sequential``, ``compress`` and ``state_dict`` raise
:class:`~repro.core.errors.StreamError` on it, because it would fold rows into
a mixture no shard holds, or save a snapshot that has lost its stds.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.core import fastpath
from repro.core.errors import InvalidParameterError, StreamError
from repro.core.estimator import (
    FLOAT_BYTES,
    SelectivityEstimator,
    StreamingEstimator,
    register_estimator,
)
from repro.stream.batches import normalize_batch
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table

__all__ = ["StreamingADE"]

#: Work-buffer bound (in floats) for each ``(block, K)`` distance buffer of
#: the chunk fold: 512 KiB, so both buffers stay L2 resident.  Smaller blocks
#: fit the cache too but multiply the numpy calls per chunk, and every call
#: releases and retakes the GIL, which serialises shards folding on threads.
_ASSIGN_BUFFER_ELEMENTS = 1 << 16

#: Kernel count from which the fold searches a max-norm ``cKDTree`` over the
#: scaled kernel means instead of dense distance blocks.  Below it, building
#: and querying the tree costs about as much as the blocks or more; from it
#: on, the tree won both searches in every timed run over kernels drawn from
#: a 2-D mixture (2-core Xeon VM, Python 3.11, scipy 1.17).
_TREE_MIN_KERNELS = 288

#: Neighbours, the kernel itself included, that a compaction round lists for
#: every kernel (see :func:`_closest_pairs_tree`).
_PAIR_NEIGHBOURS = 8

#: The lazy decay scale is renormalised once it shrinks past this bound, and
#: the sub-chunk length is capped so one chunk can never shrink it by more
#: than the same factor — together this keeps every stored weight far from
#: the float range limits.
_SCALE_FLOOR = 1e-100


#: The normal-CDF interval mass now lives in :mod:`repro.core.fastpath` (the
#: shared micro-kernel); this alias keeps the module-local name working.
_normal_interval_mass = fastpath.normal_box_mass


def _max_norm_distances(
    points: np.ndarray, centres: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Fill ``out[i, k]`` with ``max_a |points[i, a] - centres[k, a]|``.

    ``out`` and ``work`` are caller-owned ``(n, K)`` buffers, so a blocked
    caller reuses them.  Each attribute is one in-place 2-D pass (subtract,
    abs, maximum): an ``(n, K, d)`` tensor plus an axis reduce computes the
    same values several times slower and with ``d`` times the memory.
    """
    np.subtract(points[:, 0, None], centres[None, :, 0], out=out)
    np.abs(out, out=out)
    for axis in range(1, points.shape[1]):
        np.subtract(points[:, axis, None], centres[None, :, axis], out=work)
        np.abs(work, out=work)
        np.maximum(out, work, out=out)
    return out


def _finite(values: np.ndarray) -> bool:
    """True when every entry is finite: ``cKDTree`` refuses anything else."""
    return bool(np.isfinite(values).all())


def _dense_nearest(
    points: np.ndarray, centres: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense nearest-centre search: the lowest index wins a distance tie.

    Blocked over points: the two ``(block, K)`` buffers of
    :func:`_max_norm_distances` hold at most ``_ASSIGN_BUFFER_ELEMENTS``
    floats each, so they stay cache resident whatever the batch size.  Each
    row's ``argmin`` is independent of the block size.
    """
    n = points.shape[0]
    kernels = centres.shape[0]
    nearest = np.empty(n, dtype=np.int64)
    scores = np.empty(n)
    block = max(_ASSIGN_BUFFER_ELEMENTS // max(kernels, 1), 1)
    best = np.empty((min(block, n), kernels))
    work = np.empty_like(best)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = stop - start
        dist = _max_norm_distances(points[start:stop], centres, best[:rows], work[:rows])
        idx = dist.argmin(axis=1)
        nearest[start:stop] = idx
        scores[start:stop] = dist[np.arange(rows), idx]
    return nearest, scores


def _closest_pairs_dense(
    centres: np.ndarray, limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``limit`` closest pairs ``i < j`` of ``centres``, closest first.

    Computes the ``(K, K)`` max-norm distance matrix with
    :func:`_max_norm_distances` and reads its upper triangle row-major into
    ``flat``.  ``argpartition`` pre-selects the ``limit`` smallest entries and
    a stable sort orders them, so tied distances keep the order
    ``argpartition`` returned: the pair order, ties included, is a function
    of ``flat`` alone.
    """
    kernels = centres.shape[0]
    diff = np.empty((kernels, kernels))
    _max_norm_distances(centres, centres, diff, np.empty_like(diff))
    ids = np.arange(kernels)
    flat = diff[ids[:, None] < ids]
    candidates = np.argpartition(flat, limit - 1)[:limit]
    candidates = candidates[np.argsort(flat[candidates], kind="stable")]
    # Row i of the triangle holds columns i+1..K-1 from flat position
    # row_start[i] on, so each candidate maps back to its pair.
    row_start = ids * (2 * kernels - ids - 1) // 2
    iu = np.searchsorted(row_start, candidates, side="right") - 1
    ju = candidates - row_start[iu] + iu + 1
    return iu, ju


def _closest_pairs_tree(
    centres: np.ndarray, limit: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_closest_pairs_dense`'s answer from k-d tree neighbour lists.

    Lists each centre's ``_PAIR_NEIGHBOURS`` nearest centres (itself
    included) and lets ``tau`` be the smallest last-listed distance.  A pair
    closer than ``tau`` is closer than its first centre's last listed
    neighbour, so it is listed there: the pairs ``i < j`` listed closer than
    ``tau`` are all the pairs closer than ``tau``.  They settle the dense
    answer when there are at least ``limit`` of them and the ``limit``
    closest, plus the next one if there is one, have strictly increasing
    distances: then no tie is left for the dense sort to order.  Returns
    ``None`` otherwise, and the caller runs the dense code.
    """
    if not _finite(centres):
        return None
    dist, idx = cKDTree(centres).query(centres, k=_PAIR_NEIGHBOURS, p=np.inf)
    rows = np.broadcast_to(np.arange(centres.shape[0])[:, None], idx.shape)
    listed = (dist < dist[:, -1].min()) & (idx > rows)
    close = dist[listed]
    if close.size < limit:
        return None
    take = min(limit + 1, close.size)
    order = np.argpartition(close, take - 1)[:take]
    order = order[np.argsort(close[order])]
    if not (np.diff(close[order]) > 0).all():
        return None
    order = order[:limit]
    return rows[listed][order], idx[listed][order]


@register_estimator("streaming_ade")
class StreamingADE(StreamingEstimator):
    """Bounded-memory streaming adaptive density estimator.

    Parameters
    ----------
    max_kernels:
        Maximum number of cluster kernels retained (the space budget).
    decay:
        Per-tuple exponential decay applied to existing kernel weights before
        each insert.  ``1.0`` disables decay (landmark model); values such as
        ``1 - 1e-4`` give a half-life of ≈6.9k tuples, letting the model
        forget pre-drift data.
    merge_threshold:
        Distance (in units of per-attribute smoothing bandwidths) under which
        a new tuple is merged into its nearest kernel even when budget is
        still available.  Keeps duplicate-heavy streams from exhausting the
        budget on identical points.
    prune_weight:
        Kernels whose weight falls below this fraction of the mean kernel
        weight are discarded during compression.
    smoothing_factor:
        Multiplier on the Scott-rule global smoothing bandwidth.
    chunk_size:
        Number of rows folded into the model per vectorized maintenance step
        (see the module docstring for the bulk-ingestion contract).  Larger
        chunks amortise more interpreter overhead at the cost of coarser
        merge decisions; the default is a good trade-off.
    seed:
        Seed for tie-breaking randomness (unused in the default policy but
        kept for reproducible subclasses).
    """

    name = "streaming_ade"

    # State-merge into one union mixture (see "Sharded union" in the module
    # docstring): exact up to float summation order.
    supports_merge = True
    merge_lossless = True

    def __init__(
        self,
        max_kernels: int = 256,
        decay: float = 1.0,
        merge_threshold: float = 0.25,
        prune_weight: float = 1e-3,
        smoothing_factor: float = 1.0,
        chunk_size: int = 256,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if max_kernels < 2:
            raise InvalidParameterError("max_kernels must be at least 2")
        if not 0.0 < decay <= 1.0:
            raise InvalidParameterError("decay must lie in (0, 1]")
        if merge_threshold < 0:
            raise InvalidParameterError("merge_threshold must be non-negative")
        if smoothing_factor <= 0:
            raise InvalidParameterError("smoothing_factor must be positive")
        if chunk_size < 1:
            raise InvalidParameterError("chunk_size must be positive")
        self.max_kernels = int(max_kernels)
        self.decay = float(decay)
        self.merge_threshold = float(merge_threshold)
        self.prune_weight = float(prune_weight)
        self.smoothing_factor = float(smoothing_factor)
        self.chunk_size = int(chunk_size)
        self.seed = seed
        if self.decay < 1.0:
            # Cap the sub-chunk length so decay**chunk stays above the scale
            # floor: stored weights are expressed relative to the lazy decay
            # scale and must remain representable.
            safe = max(int(-math.log10(_SCALE_FLOOR) / -math.log10(self.decay)), 1)
            self._chunk = min(self.chunk_size, safe)
        else:
            self._chunk = self.chunk_size

        self._dims = 0
        self._means = np.empty((0, 0))
        self._variances = np.empty((0, 0))
        self._weights = np.empty(0)
        self._decay_scale = 1.0
        self._total_seen = 0.0
        self._domain_low = np.empty(0)
        self._domain_high = np.empty(0)
        self._pending = np.empty((0, 0))
        self._pending_count = 0
        # Running (decayed) sums used for the global smoothing bandwidth.
        self._sum_w = 0.0
        self._sum_wx = np.empty(0)
        self._sum_wx2 = np.empty(0)
        # Per-kernel stds carried from the shards by merge_state(); None on
        # every model that derives them from its own smoothing bandwidth.
        self._carried_stds: np.ndarray | None = None
        # Staleness counter for the query fast path: every maintenance step
        # (chunk fold, per-tuple insert, compress, prune, restore) bumps the
        # epoch; the support index + std cache is rebuilt lazily on the next
        # estimate rather than updated per tuple.
        self._maintenance_epoch = 0
        self._support_cache: (
            tuple[int, fastpath.KernelSupportIndex, np.ndarray] | None
        ) = None

    # -- lifecycle ---------------------------------------------------------
    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "StreamingADE":
        """Initialise the model and stream every row of ``table`` through it."""
        columns = self._resolve_columns(table, columns)
        self.start(columns)
        data = table.columns(columns)
        if data.shape[0] > 0:
            self.insert(data)
        self._mark_fitted(columns, table.row_count)
        return self

    def start(self, columns: Sequence[str]) -> "StreamingADE":
        """Initialise an empty model over ``columns`` without any data.

        Use this when the relation is consumed purely as a stream; the model
        becomes usable (``is_fitted``) immediately with zero rows modelled.
        """
        columns = list(columns)
        if not columns:
            raise InvalidParameterError("at least one column is required")
        self._dims = len(columns)
        self._means = np.empty((0, self._dims))
        self._variances = np.empty((0, self._dims))
        self._weights = np.empty(0)
        self._decay_scale = 1.0
        self._total_seen = 0.0
        self._domain_low = np.full(self._dims, np.inf)
        self._domain_high = np.full(self._dims, -np.inf)
        self._pending = np.empty((self._chunk, self._dims))
        self._pending_count = 0
        self._sum_w = 0.0
        self._sum_wx = np.zeros(self._dims)
        self._sum_wx2 = np.zeros(self._dims)
        self._carried_stds = None
        self._mark_stale()
        self._mark_fitted(columns, 0)
        return self

    def _mark_stale(self) -> None:
        """Bump the maintenance epoch: the synopsis changed under the index."""
        self._maintenance_epoch += 1
        self._support_cache = None

    def _require_writable(self, operation: str) -> None:
        """Refuse a mutation or a snapshot of a read-only shard union."""
        if self._carried_stds is not None:
            raise StreamError(
                f"{operation}() on a merged union of shard mixtures: it is a "
                "read-only cache of shard state; update or save the shards"
            )

    def merge_state(self, shards: Sequence[SelectivityEstimator]) -> "StreamingADE":
        """Fold flushed shard mixtures into this instance as one union mixture.

        Kernels are concatenated in shard order; shard ``s``'s stored weights
        are scaled by ``n_s / W_s`` and its per-kernel stds are carried (see
        "Sharded union" in the module docstring).  A shard without rows or
        kernels adds nothing.  The union models ``Σ n_s`` rows.
        """
        peers = self._require_merge_peers(shards)
        self.start(peers[0].columns)
        parts = []
        for peer in peers:
            peer.flush()
            if peer.row_count > 0 and peer._weights.size:
                scale = peer.row_count / float(peer._weights.sum())
                parts.append(
                    (peer._means, peer._variances, peer._kernel_stds(), peer._weights * scale)
                )
        stds = np.empty((0, self._dims))
        if parts:
            self._means, self._variances, stds, self._weights = (
                np.concatenate(arrays) for arrays in zip(*parts)
            )
        self._carried_stds = stds
        self._mark_fitted(peers[0].columns, sum(peer.row_count for peer in peers))
        return self

    # -- streaming maintenance -----------------------------------------------
    def insert(self, rows: np.ndarray) -> None:
        """Fold a batch of rows into the model via the chunked bulk path.

        Empty batches are a no-op.  Rows are processed in ``chunk_size``
        sub-chunks; a partial tail stays buffered until the next insert, an
        explicit :meth:`flush`, or any estimation / introspection call.
        """
        if not self.is_fitted:
            raise StreamError("call fit() or start() before insert()")
        self._require_writable("insert")
        rows = self._validate_rows(rows)
        if rows is None:
            return
        n = rows.shape[0]
        chunk = self._chunk
        start = 0
        while start < n:
            if self._pending_count == 0 and n - start >= chunk:
                self._process_chunk(rows[start : start + chunk])
                start += chunk
                continue
            take = min(chunk - self._pending_count, n - start)
            self._pending[self._pending_count : self._pending_count + take] = rows[
                start : start + take
            ]
            self._pending_count += take
            start += take
            if self._pending_count == chunk:
                self._process_chunk(self._pending)
                self._pending_count = 0
        self._row_count += n

    def insert_sequential(self, rows: np.ndarray) -> None:
        """Reference per-tuple maintenance loop (the pre-bulk semantics).

        Kept as the semantic baseline the chunked bulk path is validated and
        benchmarked against; orders of magnitude slower on large batches.
        """
        if not self.is_fitted:
            raise StreamError("call fit() or start() before insert()")
        self._require_writable("insert_sequential")
        rows = self._validate_rows(rows)
        if rows is None:
            return
        self.flush()
        if self._decay_scale != 1.0:
            # The per-tuple path decays weights eagerly; fold the lazy scale
            # in so both paths can interoperate on the same model.
            self._weights *= self._decay_scale
            self._decay_scale = 1.0
        for row in rows:
            self._insert_one(row)
        self._row_count += rows.shape[0]

    def flush(self) -> None:
        """Fold any buffered rows into the kernels (closes the current sub-chunk)."""
        if self._pending_count:
            count = self._pending_count
            self._pending_count = 0
            self._process_chunk(self._pending[:count])

    def _validate_rows(self, rows: np.ndarray) -> np.ndarray | None:
        """Normalise ``rows`` to a ``(n, d)`` float matrix; ``None`` when empty."""
        return normalize_batch(rows, self._dims, StreamError)

    def _process_chunk(self, rows: np.ndarray) -> None:
        """Fold one sub-chunk into the model with a bounded number of numpy ops."""
        self._mark_stale()
        m, d = rows.shape
        self._total_seen += float(m)
        self._domain_low = np.minimum(self._domain_low, rows.min(axis=0))
        self._domain_high = np.maximum(self._domain_high, rows.max(axis=0))

        if self.decay < 1.0:
            # Row i of the chunk carries weight decay**(m-1-i): exactly the
            # weight it would retain at the end of the chunk under per-tuple
            # decay.  Pre-chunk kernels shrink by decay**m via the lazy scale.
            row_weights = self.decay ** np.arange(m - 1, -1, -1, dtype=float)
            chunk_decay = self.decay**m
            self._sum_w = self._sum_w * chunk_decay + float(row_weights.sum())
            self._sum_wx = self._sum_wx * chunk_decay + row_weights @ rows
            self._sum_wx2 = self._sum_wx2 * chunk_decay + row_weights @ (rows * rows)
            if self._decay_scale < _SCALE_FLOOR:
                self._weights *= self._decay_scale
                self._decay_scale = 1.0
            self._decay_scale *= chunk_decay
            stored_weights = row_weights / self._decay_scale
        else:
            self._sum_w += float(m)
            self._sum_wx += rows.sum(axis=0)
            self._sum_wx2 += (rows * rows).sum(axis=0)
            stored_weights = np.ones(m)

        smoothing = self._smoothing_bandwidths()
        kernels = self._weights.size

        if kernels:
            nearest, scores = self._nearest_kernels(rows, smoothing)
            merge_mask = scores <= self.merge_threshold
        else:
            nearest = np.zeros(m, dtype=np.int64)
            merge_mask = np.zeros(m, dtype=bool)

        # Grouped moment-preserving merges: accumulate (weight, Σwx, Σwx²)
        # per target kernel, from both threshold merges and — under budget
        # pressure — catchment absorption of whole candidate groups.
        acc_w = np.zeros(kernels)
        acc_wx = np.zeros((kernels, d))
        acc_wx2 = np.zeros((kernels, d))
        if merge_mask.any():
            targets = nearest[merge_mask]
            w = stored_weights[merge_mask]
            r = rows[merge_mask]
            np.add.at(acc_w, targets, w)
            np.add.at(acc_wx, targets, w[:, None] * r)
            np.add.at(acc_wx2, targets, w[:, None] * r * r)

        new_w: np.ndarray | None = None
        new_means: np.ndarray | None = None
        new_vars: np.ndarray | None = None
        leftover = ~merge_mask
        if leftover.any():
            new_w, new_wx, new_wx2 = self._group_rows(
                rows[leftover], stored_weights[leftover], smoothing
            )
            new_means = new_wx / new_w[:, None]
            new_vars = np.maximum(new_wx2 / new_w[:, None] - new_means**2, 0.0)
            if kernels and kernels + new_w.size > self.max_kernels:
                # Budget pressure: absorb candidates that fall inside the
                # natural catchment area of an existing kernel (the expected
                # kernel spacing over the observed domain); only genuinely
                # new structure opens kernels (the M-Kernel maintenance step).
                cnearest, _ = self._nearest_kernels(new_means, smoothing)
                spacing = self._kernel_spacing()
                absorb = (np.abs(new_means - self._means[cnearest]) <= spacing).all(axis=1)
                if absorb.any():
                    t = cnearest[absorb]
                    np.add.at(acc_w, t, new_w[absorb])
                    np.add.at(acc_wx, t, new_wx[absorb])
                    np.add.at(acc_wx2, t, new_wx2[absorb])
                    keep = ~absorb
                    new_w = new_w[keep]
                    new_means = new_means[keep]
                    new_vars = new_vars[keep]

        touched = acc_w > 0
        if touched.any():
            w0 = self._weights[touched]
            m0 = self._means[touched]
            v0 = self._variances[touched]
            total = w0 + acc_w[touched]
            mean = (w0[:, None] * m0 + acc_wx[touched]) / total[:, None]
            var = (w0[:, None] * (v0 + m0**2) + acc_wx2[touched]) / total[:, None] - mean**2
            self._weights[touched] = total
            self._means[touched] = mean
            self._variances[touched] = np.maximum(var, 0.0)

        if new_w is not None and new_w.size:
            self._means = np.concatenate([self._means, new_means])
            self._variances = np.concatenate([self._variances, new_vars])
            self._weights = np.concatenate([self._weights, new_w])

        if self._weights.size > self.max_kernels:
            self._compress_to(self.max_kernels)
        # Prune after every decayed chunk regardless of capacity (the
        # original per-tuple path only pruned on the at-capacity branch, so
        # stale kernels could squat on budget while below max_kernels).
        if self.decay < 1.0:
            self._prune()

    def _nearest_kernels(
        self, points: np.ndarray, smoothing: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Index of and max-norm score to the nearest kernel for every point.

        From ``_TREE_MIN_KERNELS`` kernels on, one max-norm ``cKDTree`` over
        the scaled means finds each point's two nearest kernels.  A row whose
        two distances differ takes the first.  A row whose two distances tie
        goes to :func:`_dense_nearest`, whose argmin picks the lowest kernel
        index; so does every row below the crossover, or when a scaled value
        is not finite (``cKDTree`` refuses those).  Either way the answer,
        ties included, is the dense argmin's.
        """
        scaled_means = self._means / smoothing
        scaled_points = points / smoothing
        if scaled_means.shape[0] < _TREE_MIN_KERNELS or not (
            _finite(scaled_means) and _finite(scaled_points)
        ):
            return _dense_nearest(scaled_points, scaled_means)
        dist, idx = cKDTree(scaled_means).query(scaled_points, k=2, p=np.inf)
        nearest = idx[:, 0]
        scores = dist[:, 0]
        tied = np.flatnonzero(dist[:, 0] == dist[:, 1])
        if tied.size:
            nearest[tied], scores[tied] = _dense_nearest(scaled_points[tied], scaled_means)
        return nearest, scores

    def _group_rows(
        self, rows: np.ndarray, weights: np.ndarray, smoothing: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coalesce near-duplicate rows on a ``merge_threshold``-sized grid.

        Returns per-group ``(weight, Σwx, Σwx²)`` so each group can be
        appended as one kernel — or absorbed into an existing one — without
        losing moments.  Mirrors the sequential path's near-duplicate
        coalescing, which would otherwise exhaust the budget on identical
        points arriving inside one chunk.
        """
        width = max(self.merge_threshold, 1e-9) * smoothing
        cells = np.floor(np.clip(rows / width, -(2.0**62), 2.0**62)).astype(np.int64)
        _, inverse = np.unique(cells, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
        groups = int(inverse.max()) + 1
        w = np.zeros(groups)
        wx = np.zeros((groups, rows.shape[1]))
        wx2 = np.zeros((groups, rows.shape[1]))
        np.add.at(w, inverse, weights)
        np.add.at(wx, inverse, weights[:, None] * rows)
        np.add.at(wx2, inverse, weights[:, None] * rows * rows)
        return w, wx, wx2

    def _insert_one(self, row: np.ndarray) -> None:
        self._mark_stale()
        if self.decay < 1.0 and self._weights.size:
            self._weights *= self.decay
            self._sum_w *= self.decay
            self._sum_wx *= self.decay
            self._sum_wx2 *= self.decay
        self._total_seen += 1.0
        self._sum_w += 1.0
        self._sum_wx += row
        self._sum_wx2 += row * row
        self._domain_low = np.minimum(self._domain_low, row)
        self._domain_high = np.maximum(self._domain_high, row)

        if self._weights.size == 0:
            self._append_kernel(row)
            return

        smoothing = self._smoothing_bandwidths()
        distances = np.abs(self._means - row)
        scores = (distances / smoothing).max(axis=1)
        nearest = int(np.argmin(scores))

        at_capacity = self._weights.size >= self.max_kernels
        if not at_capacity:
            # Budget available: only coalesce near-duplicates, otherwise give
            # the tuple its own kernel so local structure is preserved.
            if scores[nearest] <= self.merge_threshold:
                self._merge_point(nearest, row)
            else:
                self._append_kernel(row)
            # Prune below capacity too: under decay, stale kernels must not
            # squat on budget until the model happens to fill up.
            if self.decay < 1.0:
                self._prune()
            return

        # At capacity.  Absorb the tuple into its nearest kernel when it falls
        # within that kernel's natural catchment area (the expected spacing of
        # kernels over the observed domain).  A tuple far from every kernel —
        # an outlier or the first evidence of a drifted mode — must not
        # inflate an existing kernel's variance; instead the two closest
        # existing kernels are merged to free budget and the tuple becomes a
        # new, tight kernel (the classical M-Kernel maintenance step).
        spacing = self._kernel_spacing()
        within_catchment = bool(np.all(distances[nearest] <= spacing))
        if within_catchment:
            self._merge_point(nearest, row)
        else:
            self._merge_closest_pair()
            self._append_kernel(row)
        self._prune()

    def _kernel_spacing(self) -> np.ndarray:
        """Expected per-attribute spacing of ``max_kernels`` kernels over the domain."""
        width = self._domain_high - self._domain_low
        width = np.where(np.isfinite(width) & (width > 0), width, 1.0)
        spacing = width * self.max_kernels ** (-1.0 / self._dims)
        return np.maximum(spacing, self._smoothing_bandwidths())

    def _append_kernel(self, row: np.ndarray) -> None:
        self._means = np.vstack([self._means, row[None, :]])
        self._variances = np.vstack([self._variances, np.zeros((1, self._dims))])
        self._weights = np.append(self._weights, 1.0)

    def _merge_point(self, index: int, row: np.ndarray) -> None:
        """Moment-preserving merge of a unit-weight point into kernel ``index``."""
        w = self._weights[index]
        mean = self._means[index]
        var = self._variances[index]
        total = w + 1.0
        new_mean = (w * mean + row) / total
        # Combine within-kernel variance with the between-component spread.
        new_var = (w * (var + mean**2) + row**2) / total - new_mean**2
        self._weights[index] = total
        self._means[index] = new_mean
        self._variances[index] = np.maximum(new_var, 0.0)

    def _prune(self) -> None:
        """Drop kernels whose weight decayed to insignificance.

        Operates on the stored (scale-relative) weights: the threshold is a
        fraction of the mean weight, so the lazy decay scale cancels.
        """
        if self._weights.size == 0:
            return
        threshold = self.prune_weight * float(self._weights.mean())
        keep = self._weights >= threshold
        if keep.all():
            return
        # Never prune everything: keep at least the heaviest kernel.
        if not keep.any():
            keep[int(np.argmax(self._weights))] = True
        self._mark_stale()
        self._means = self._means[keep]
        self._variances = self._variances[keep]
        self._weights = self._weights[keep]

    def compress(self, target_kernels: int | None = None) -> None:
        """Merge closest kernel pairs until at most ``target_kernels`` remain.

        This is the offline compaction step; the online path never exceeds
        ``max_kernels``, but callers may shrink an existing model to a smaller
        budget (e.g. before shipping statistics to another node).
        """
        target = target_kernels if target_kernels is not None else self.max_kernels
        if target < 1:
            raise InvalidParameterError("target_kernels must be positive")
        self._require_writable("compress")
        self.flush()
        self._compress_to(target)

    def _compress_to(self, target: int) -> None:
        """Batched compaction: merge disjoint closest pairs until ≤ ``target``.

        Each round lists the ``limit = 4·excess + 16`` closest kernel pairs
        in ascending distance, exactly as a dense ``(K, K)`` max-norm distance
        matrix orders them (:func:`_closest_pairs_dense`): from
        ``_TREE_MIN_KERNELS`` kernels on, :func:`_closest_pairs_tree` reads
        them off a k-d tree's neighbour lists when it can prove the order is
        the dense one, and the dense matrix decides every other round.  A
        greedy scan then merges up to ``excess`` disjoint pairs; conflicts (a
        kernel appearing in two close pairs) roll over to the next round.
        """
        while self._weights.size > target:
            self._mark_stale()
            kernels = self._weights.size
            excess = kernels - target
            normalised = self._means / self._smoothing_bandwidths()
            # Only the smallest distances can yield `excess` disjoint pairs;
            # pre-select a few times that many so the greedy scan stays short.
            limit = min(kernels * (kernels - 1) // 2, 4 * excess + 16)
            pairs = None
            if kernels >= _TREE_MIN_KERNELS:
                pairs = _closest_pairs_tree(normalised, limit)
            iu, ju = pairs if pairs is not None else _closest_pairs_dense(normalised, limit)
            used = np.zeros(kernels, dtype=bool)
            left: list[int] = []
            right: list[int] = []
            for a, b in zip(iu.tolist(), ju.tolist()):
                if used[a] or used[b]:
                    continue
                used[a] = used[b] = True
                left.append(a)
                right.append(b)
                if len(left) == excess:
                    break
            i = np.asarray(left, dtype=np.int64)
            j = np.asarray(right, dtype=np.int64)
            wi = self._weights[i]
            wj = self._weights[j]
            total = wi + wj
            mean = (
                wi[:, None] * self._means[i] + wj[:, None] * self._means[j]
            ) / total[:, None]
            var = (
                wi[:, None] * (self._variances[i] + self._means[i] ** 2)
                + wj[:, None] * (self._variances[j] + self._means[j] ** 2)
            ) / total[:, None] - mean**2
            self._weights[i] = total
            self._means[i] = mean
            self._variances[i] = np.maximum(var, 0.0)
            keep = np.ones(kernels, dtype=bool)
            keep[j] = False
            self._means = self._means[keep]
            self._variances = self._variances[keep]
            self._weights = self._weights[keep]

    def _merge_closest_pair(self) -> None:
        """Merge the single closest kernel pair (sequential reference path)."""
        if self._weights.size > 1:
            self._compress_to(self._weights.size - 1)

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {
            "max_kernels": self.max_kernels,
            "decay": self.decay,
            "merge_threshold": self.merge_threshold,
            "prune_weight": self.prune_weight,
            "smoothing_factor": self.smoothing_factor,
            "chunk_size": self.chunk_size,
            "seed": self.seed,
        }

    def _state(self) -> tuple[dict, dict]:
        # state_dict() has already flushed: the pending ingestion buffer is
        # empty, so the kernel arrays plus running sums are the whole model.
        self._require_writable("state_dict")
        arrays = {
            "means": self._means,
            "variances": self._variances,
            "weights": self._weights,
            "domain_low": self._domain_low,
            "domain_high": self._domain_high,
            "sum_wx": self._sum_wx,
            "sum_wx2": self._sum_wx2,
        }
        meta = {
            "dims": self._dims,
            "decay_scale": self._decay_scale,
            "total_seen": self._total_seen,
            "sum_w": self._sum_w,
        }
        return arrays, meta

    def _restore_state(self, arrays, meta) -> None:
        self._dims = int(meta["dims"])
        if self._dims:
            self._means = np.asarray(arrays["means"], dtype=float).reshape(-1, self._dims)
            self._variances = np.asarray(arrays["variances"], dtype=float).reshape(
                -1, self._dims
            )
        else:  # never started: no column geometry to restore
            self._means = np.empty((0, 0))
            self._variances = np.empty((0, 0))
        self._weights = np.asarray(arrays["weights"], dtype=float)
        self._domain_low = np.asarray(arrays["domain_low"], dtype=float)
        self._domain_high = np.asarray(arrays["domain_high"], dtype=float)
        self._sum_wx = np.asarray(arrays["sum_wx"], dtype=float)
        self._sum_wx2 = np.asarray(arrays["sum_wx2"], dtype=float)
        self._decay_scale = float(meta["decay_scale"])
        self._total_seen = float(meta["total_seen"])
        self._sum_w = float(meta["sum_w"])
        self._pending = np.empty((self._chunk, self._dims))
        self._pending_count = 0
        self._carried_stds = None
        self._mark_stale()

    # -- model introspection -----------------------------------------------------
    @property
    def kernel_count(self) -> int:
        """Number of cluster kernels currently stored."""
        self.flush()
        return int(self._weights.size)

    @property
    def kernel_weights(self) -> np.ndarray:
        """Copy of the kernel weights (with the lazy decay scale applied)."""
        self.flush()
        return self._weights * self._decay_scale

    @property
    def kernel_means(self) -> np.ndarray:
        """Copy of the kernel mean vectors (``(K, d)``)."""
        self.flush()
        return self._means.copy()

    @property
    def kernel_variances(self) -> np.ndarray:
        """Copy of the per-attribute kernel variances (``(K, d)``)."""
        self.flush()
        return self._variances.copy()

    @property
    def effective_count(self) -> float:
        """Decayed number of tuples the model currently represents."""
        self.flush()
        return float(self._weights.sum() * self._decay_scale)

    def memory_bytes(self) -> int:
        """Footprint of the synopsis proper (kernels + running sums).

        The transient per-chunk ingestion buffer is working memory, not part
        of the shipped statistics, and is flushed before accounting.
        """
        self._require_fitted()
        self.flush()
        kernel_floats = self._weights.size * (2 * self._dims + 1)
        running_floats = 2 * self._dims + self._sum_wx.size + self._sum_wx2.size + 1
        return int((kernel_floats + running_floats) * FLOAT_BYTES)

    def _smoothing_bandwidths(self) -> np.ndarray:
        """Per-attribute smoothing bandwidth (Scott rule on the *local* spread).

        The scale is the weighted average within-kernel standard deviation,
        not the global standard deviation: on multimodal data the global
        spread covers the gaps between clusters and would smear kernel mass
        into empty regions — exactly the over-smoothing failure the adaptive
        estimator is meant to avoid.  While the model is young (all kernels
        still have zero variance) the global spread is used as a fallback.
        """
        if self._sum_w <= 0:
            return np.ones(self._dims)
        mean = self._sum_wx / self._sum_w
        global_var = np.maximum(self._sum_wx2 / self._sum_w - mean**2, 0.0)
        global_std = np.sqrt(global_var)
        if self._weights.size:
            total = float(self._weights.sum())
            within_var = (self._weights @ self._variances) / max(total, 1e-12)
            within_std = np.sqrt(np.maximum(within_var, 0.0))
        else:
            within_std = np.zeros(self._dims)
        width = np.where(
            np.isfinite(self._domain_high - self._domain_low),
            np.maximum(self._domain_high - self._domain_low, 0.0),
            1.0,
        )
        fallback = np.where(global_std > 0, global_std, np.maximum(width, 1.0) * 0.1)
        scale = np.where(within_std > 0, within_std, fallback)
        n_eff = max(self._sum_w, 2.0)
        h = scale * n_eff ** (-1.0 / (self._dims + 4))
        return np.maximum(h * self.smoothing_factor, 1e-9)

    # -- estimation -------------------------------------------------------------
    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Mixture mass inside every query box, broadcast over all kernels.

        Selective batches run through the support-culling fast path
        (:func:`repro.core.fastpath.estimate_boxes`); everything else — and
        every batch inside :func:`~repro.core.fastpath.fastpath_disabled` —
        runs the dense reference path on the same batched product-kernel CDF
        micro-kernel.
        """
        self.flush()
        n = lows.shape[0]
        if self._weights.size == 0:
            return np.zeros(n)
        total = float(self._weights.sum())
        if total <= 0:
            return np.zeros(n)
        use_fastpath = fastpath.fastpath_enabled()
        if use_fastpath:
            index, stds = self._support_state()
        else:
            # The dense path never pays for an index it will not read.
            stds = self._kernel_stds()

        def axis_mass(
            ids: np.ndarray | None,
            axis: int,
            low: np.ndarray,
            high: np.ndarray,
            *,
            tail: float | None = None,
        ) -> np.ndarray:
            means, scale = self._means[:, axis], stds[:, axis]
            if ids is not None:
                means, scale = means[ids], scale[ids]
            return _normal_interval_mass(low, high, means, scale, tail=tail)

        if use_fastpath:
            culled = fastpath.estimate_boxes(
                lows, highs, index, self._weights, total, axis_mass
            )
            if culled is not None:
                return culled
        return fastpath.weighted_box_masses(lows, highs, axis_mass, self._weights, total)

    def _kernel_stds(self) -> np.ndarray:
        """Per-kernel per-attribute std (``(K, d)``) that every read uses.

        The kernel's own spread combined with the global smoothing bandwidth,
        ``sqrt(var + h²)``; a shard union returns the stds it carried from its
        shards instead (see "Sharded union" in the module docstring).
        """
        if self._carried_stds is not None:
            return self._carried_stds
        smoothing = self._smoothing_bandwidths()
        return np.sqrt(self._variances + smoothing**2)

    def _support_state(self) -> tuple["fastpath.KernelSupportIndex", np.ndarray]:
        """Cached ``(support index, per-kernel stds)`` for the current epoch.

        The stds are :meth:`_kernel_stds`; the effective support radius is
        the Gaussian cull radius times that std.  Rebuilt lazily
        whenever the maintenance epoch moved (never per tuple); the cache
        tuple is swapped atomically so concurrent readers at worst rebuild.
        """
        cached = self._support_cache
        if cached is not None and cached[0] == self._maintenance_epoch:
            return cached[1], cached[2]
        stds = self._kernel_stds()
        radius = fastpath.gaussian_cull_radius()
        index = fastpath.KernelSupportIndex(self._means, stds * radius)
        self._support_cache = (self._maintenance_epoch, index, stds)
        return index, stds

    def density(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the mixture density at ``points`` (``(m, d)`` matrix)."""
        self._require_fitted()
        self.flush()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self._dims:
            raise InvalidParameterError(f"density expects {self._dims}-dimensional points")
        if self._weights.size == 0:
            return np.zeros(points.shape[0])
        stds = self._kernel_stds()
        total = float(self._weights.sum())
        result = np.zeros(points.shape[0])
        for start in range(0, points.shape[0], 1024):
            chunk = points[start : start + 1024]
            values = np.ones((chunk.shape[0], self._weights.size))
            for d in range(self._dims):
                z = (chunk[:, d, None] - self._means[None, :, d]) / stds[None, :, d]
                values *= np.exp(-0.5 * z * z) / (stds[None, :, d] * math.sqrt(2 * math.pi))
            result[start : start + 1024] = values @ self._weights / total
        return result
