"""Query-side fast path: kernel support culling + the batched CDF micro-kernel.

Every estimator of the kernel family (fixed KDE, adaptive KDE, the streaming
ADE and — through its wrapped base — the feedback wrapper) answers a range
query as a weighted sum of per-kernel product masses,

    ``sel(Q) = (1/W) Σ_i w_i Π_d mass_d(i, Q)``.

The dense evaluation is O(kernels × queries × dims) normal-CDF calls even
though a kernel more than a few bandwidths away from the query box
contributes essentially nothing.  This module supplies the two pieces that
make the family fast without changing its answers:

:class:`KernelSupportIndex`
    A per-dimension sorted index of kernel positions with *effective support
    radii*.  A kernel whose ``±radius`` support cannot overlap a query box on
    some axis is culled via two ``searchsorted`` probes per axis; surviving
    axes are intersected with per-kernel radius checks.  Compact kernels
    (Epanechnikov & friends) use their exact support radius, so culling is
    lossless; the Gaussian uses the ε-derived radius below.  The index
    precomputes, per axis, every kernel's support edges ``c ± r`` (by kernel
    id and in the axis's sort order), so the refinement of the primary
    axis's candidate slice is a contiguous slice compare and the other axes
    gather only the survivors.

:func:`weighted_box_masses`
    The single batched product-kernel CDF micro-kernel: a blocked,
    preallocated-buffer accumulation of ``Σ_i w_i Π_d mass_d`` that both the
    dense reference path and the culled group path run on.  It replaces the
    near-duplicate inner loops that previously lived in ``core/kde.py`` and
    ``core/streaming.py`` (and that ``core/adaptive.py`` /
    ``core/feedback.py`` inherited).

Routes
------

:func:`estimate_boxes` answers a multi-box plan on the *grouped route*:
per-query candidate counts decide dense vs culled, selective boxes are
grid-clustered and each group is evaluated against one shared candidate set
with the per-axis blocked micro-kernel.  A one-box plan — the request an
optimizer sends, one predicate at a time — takes the *one-box route*
instead: the same candidate count and dense/culled rule, then no grouping
and none of the group bookkeeping, just one
:meth:`KernelSupportIndex.box_candidates` probe against the precomputed
support edges and the micro-kernel on the single box.  The one-box route
answers bitwise what the grouped route answers for that box.  Upstream,
:func:`repro.workload.queries.compile_queries` builds the request's plan in
one pass over the queries into Python lists, so a 1-query request reaches
the route after a few microseconds of compilation.

The repository benchmark (``perfbench/``) traces this module through the
module attributes ``estimate_boxes``, ``weighted_box_masses`` (reading the
box count from ``lows.shape[0]``) and ``KernelSupportIndex`` with its
``box_candidates(low, high)``, and the serving layer through
``repro.serve.server.compile_queries``; these names are its trace
boundaries, so every route must call through them rather than around them.

Epsilon / atol policy
---------------------

Culling an unbounded (Gaussian) kernel drops real mass, so the cull radius is
derived from a deviation budget: with per-image tail tolerance
``ε = atol / 24`` the radius is ``-ndtri(ε)`` (≈ 7.5 at the default
``atol = 1e-12``).  Every culled kernel image then contributes at most ``ε``
axis mass, and because the per-kernel weights are normalised the *total*
deviation of a fast-path estimate from the dense path is bounded by
``3·ε ≤ atol/8`` (three kernel images per axis under boundary reflection —
the reflected images of significant kernels provably fall inside the same
candidate interval, see ``KernelSupportIndex.box_candidates``).  The safety
factor 24 also absorbs the evaluation-order differences between grouped and
per-query candidate sets, which is what keeps one-row batches (the scalar
``estimate`` sugar) within 1e-12 of large batches.  Estimates are culled
*downward* only: the fast path never reports more mass than the dense path.

Staleness contract
------------------

Estimators cache their index together with a staleness counter (an epoch
bumped by every synopsis mutation — fit, bulk/sequential insert, flush of a
pending chunk, compress, prune, snapshot restore).  The index is rebuilt
lazily on the next estimate after the epoch moved; per-tuple index updates
are never attempted.  The cached ``(epoch, index)`` tuple is swapped as one
attribute, so concurrent readers (the serving layer calls ``estimate_batch``
from many threads) either see a consistent cached index or rebuild it — an
idempotent, benign race.  Deep-copying an estimator (the serving layer's
copy-on-write ``checkout``/``publish``) carries the cached index along.

Disable the fast path per estimator with ``fastpath=False`` (constructor
parameter of the kernel-family estimators) or process-wide with the
:func:`fastpath_disabled` context manager; both leave the dense reference
path as the single evaluation route, which the equivalence suite compares
against.  The process-wide switch and the route-count sink
(:func:`set_route_metrics`) are :class:`~repro.core.slot.Slot` values, so
reading either costs one attribute load.
"""

from __future__ import annotations

from typing import Callable, ContextManager, Iterator

import numpy as np
from scipy import special

from repro.core.slot import Slot

__all__ = [
    "DEFAULT_ATOL",
    "KernelSupportIndex",
    "cull_epsilon",
    "estimate_boxes",
    "fastpath_disabled",
    "fastpath_enabled",
    "gaussian_cull_radius",
    "gaussian_tail_radius",
    "normal_box_mass",
    "set_route_metrics",
    "weighted_box_masses",
]

#: Documented maximum absolute deviation of a fast-path estimate from the
#: dense reference path (see the module docstring for the derivation).
DEFAULT_ATOL = 1e-12

#: Deviation-budget safety factor: three kernel images per axis (center plus
#: two boundary reflections) times headroom for grouping and dot-product
#: rounding differences.
_EPSILON_SAFETY = 24.0

#: Below this many kernels a dense pass beats any index overhead.
_MIN_KERNELS = 32

#: Queries whose tightest per-axis candidate range still keeps this fraction
#: of all kernels are answered densely — culling would not pay for them.
_DENSE_FRACTION = 0.75

#: Aimed-for queries per evaluation group (grid-bucketed query clustering).
_TARGET_GROUP = 64

#: Work-buffer bound for the micro-kernel: (queries-per-block × kernels)
#: stays at or below this many floats (≈ 1 MB), keeping the per-block
#: temporaries cache resident while still amortising interpreter overhead.
_BUFFER_ELEMENTS = 1 << 17

#: ``axis_mass(ids, axis, lows, highs) -> (queries, kernels)`` — per-axis
#: kernel mass of every (query, kernel) pair; ``ids`` selects a candidate
#: kernel subset (``None`` means all kernels).
AxisMass = Callable[[np.ndarray | None, int, np.ndarray, np.ndarray], np.ndarray]

#: The process-wide fast-path switch (see :func:`fastpath_disabled`).
_ENABLED = Slot(True)

#: Optional observability sink for routing decisions (``None`` = no-op).
_ROUTE_METRICS = Slot(None)


def set_route_metrics(registry) -> None:
    """Install a :class:`repro.obs.metrics.MetricsRegistry` for route counts.

    When set, :func:`estimate_boxes` counts how many queries it answered via
    the culled path (``fastpath.culled_queries``) versus the dense
    micro-kernel (``fastpath.dense_queries``, including whole batches it
    declined).  ``None`` (the default) disables counting entirely — the hot
    path then pays one slot read and an ``is not None`` check.  Process-
    wide rather than per-estimator because the routing decision itself is a
    module-level policy.
    """
    _ROUTE_METRICS.set(registry if registry is not None and registry.enabled else None)


def fastpath_enabled() -> bool:
    """Whether the process-wide fast-path switch is on (default: yes)."""
    return _ENABLED.value


def fastpath_disabled() -> ContextManager[None]:
    """Force every estimator onto the dense reference path within the block.

    The equivalence suite and the fast-path benchmark use this to reach the
    dense path without rebuilding estimators; it composes with (and is
    overridden by neither) the per-estimator ``fastpath=False`` parameter.
    """
    return _ENABLED.use(False)


def cull_epsilon(atol: float = DEFAULT_ATOL) -> float:
    """Per-kernel-image tail-mass tolerance for a total deviation ``atol``."""
    return max(float(atol), 1e-300) / _EPSILON_SAFETY


def gaussian_tail_radius(epsilon: float) -> float:
    """The radius with ``Φ(-r) ≤ epsilon`` (one-sided tail mass beyond ``r``).

    Clamped to ``[1, 40]``; the single source of the Gaussian tail bound used
    by both :func:`gaussian_cull_radius` and
    :meth:`repro.core.kernels.GaussianKernel.effective_support_radius`.
    """
    return float(min(max(-special.ndtri(max(float(epsilon), 1e-300)), 1.0), 40.0))


def gaussian_cull_radius(atol: float = DEFAULT_ATOL) -> float:
    """Standardised cull radius for the Gaussian kernel at deviation ``atol``.

    ``Φ(-radius) ≤ cull_epsilon(atol)``, so a Gaussian kernel (or cluster
    kernel) whose center is more than ``radius`` standard deviations outside
    the query interval contributes at most ``ε`` axis mass.
    """
    return gaussian_tail_radius(cull_epsilon(atol))


def normal_box_mass(
    lows: np.ndarray,
    highs: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mass of ``N(means, stds²)`` inside ``[lows, highs]``, elementwise.

    Uses ``ndtr`` (the normal CDF evaluated directly) — several times faster
    than composing ``erf``, and this is the hot function of batch estimation.
    ``out`` may supply a preallocated result buffer of the broadcast shape.
    """
    if out is None:
        mass = np.subtract(highs, means)
    else:
        mass = np.subtract(highs, means, out=out)
    np.divide(mass, stds, out=mass)
    special.ndtr(mass, out=mass)
    work = np.subtract(lows, means)
    np.divide(work, stds, out=work)
    special.ndtr(work, out=work)
    np.subtract(mass, work, out=mass)
    return np.clip(mass, 0.0, 1.0, out=mass)


class KernelSupportIndex:
    """Per-dimension sorted kernel positions with effective support radii.

    ``centers`` is the ``(K, d)`` matrix of kernel positions; ``radii`` the
    per-kernel per-axis effective support (broadcastable to ``(K, d)``):
    kernel ``i`` contributes more than the cull epsilon on axis ``d`` only to
    intervals overlapping ``[c_id - r_id, c_id + r_id]``.  Instances are
    immutable snapshots of the synopsis geometry — a mutated synopsis builds
    a fresh index (see the staleness contract in the module docstring).
    """

    __slots__ = (
        "axis_orders",
        "axis_positions",
        "max_radii",
        "lower_edges",
        "upper_edges",
        "sorted_lower_edges",
        "sorted_upper_edges",
        "kernel_count",
        "dims",
    )

    def __init__(self, centers: np.ndarray, radii: np.ndarray) -> None:
        centers = np.ascontiguousarray(np.atleast_2d(centers), dtype=float)
        self.kernel_count, self.dims = centers.shape
        radii = np.broadcast_to(np.asarray(radii, dtype=float), centers.shape)
        # Everything below is stored per axis: ``(d, K)`` with contiguous
        # rows, so a probe slices or searches one axis without copying a
        # strided column.
        orders = np.ascontiguousarray(np.argsort(centers, axis=0, kind="stable").T)
        #: per-axis sort order of the kernel positions and the sorted positions
        self.axis_orders = orders
        self.axis_positions = np.take_along_axis(centers.T, orders, axis=1)
        self.max_radii = radii.max(axis=0) if self.kernel_count else np.zeros(self.dims)
        #: per-axis support edges ``c - r`` / ``c + r`` of every kernel, by
        #: kernel id and in the axis's sort order (the primary-axis refinement
        #: of :meth:`box_candidates` is then a contiguous slice)
        self.lower_edges = np.ascontiguousarray((centers - radii).T)
        self.upper_edges = np.ascontiguousarray((centers + radii).T)
        self.sorted_lower_edges = np.take_along_axis(self.lower_edges, orders, axis=1)
        self.sorted_upper_edges = np.take_along_axis(self.upper_edges, orders, axis=1)

    def candidate_counts(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Per-query, per-axis candidate-count upper bounds (``(n, d)``).

        Two vectorised ``searchsorted`` probes per axis against the sorted
        positions, widened by the axis's maximum support radius.  The counts
        drive the dense-vs-culled routing and the choice of primary axis.
        """
        counts = np.empty(lows.shape, dtype=np.int64)
        for axis in range(self.dims):
            positions = self.axis_positions[axis]
            radius = self.max_radii[axis]
            starts = positions.searchsorted(lows[:, axis] - radius, side="left")
            stops = positions.searchsorted(highs[:, axis] + radius, side="right")
            counts[:, axis] = stops - starts
        return counts

    def box_candidates(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Ascending kernel ids whose support can overlap the box ``[low, high]``.

        The axis with the fewest in-range kernels supplies the initial
        contiguous slice of its sort order; every axis (including that one)
        then refines with the exact per-kernel support edges, so the result
        is the intersection of the per-axis support overlaps.  Reflected
        kernel images (boundary-corrected KDE) need no extra probes: a
        reflected image overlaps a domain-clipped interval only if its source
        kernel sits within one support radius of the interval, which places
        the source inside the same candidate slice.
        """
        bounds = list(zip(low.tolist(), high.tolist()))
        best = None
        for axis, ((lo, hi), radius) in enumerate(zip(bounds, self.max_radii.tolist())):
            positions = self.axis_positions[axis]
            start = positions.searchsorted(lo - radius, side="left")
            stop = positions.searchsorted(hi + radius, side="right")
            if best is None or stop - start < best[1] - best[0]:
                best = (start, stop, axis)
        start, stop, primary = best
        lo, hi = bounds[primary]
        keep = self.sorted_upper_edges[primary, start:stop] >= lo
        keep &= self.sorted_lower_edges[primary, start:stop] <= hi
        ids = self.axis_orders[primary, start:stop][keep]
        for axis, (lo, hi) in enumerate(bounds):
            if axis != primary and ids.size:
                keep = self.upper_edges[axis][ids] >= lo
                keep &= self.lower_edges[axis][ids] <= hi
                ids = ids[keep]
        ids.sort()
        return ids


def weighted_box_masses(
    lows: np.ndarray,
    highs: np.ndarray,
    axis_mass: AxisMass,
    weights: np.ndarray,
    total_weight: float,
    ids: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The product-kernel CDF micro-kernel: ``(1/W) Σ_i w_i Π_d mass_d(i)``.

    Evaluates every query box in ``(lows, highs)`` against the kernel subset
    ``ids`` (all kernels when ``None``), blocked over queries with one
    preallocated ``(block, kernels)`` accumulation buffer so arbitrarily
    large batches stay cache resident.  This is the single inner loop of the
    whole estimator family — the dense reference path runs it over all
    kernels, the fast path over culled candidate sets.
    """
    n = lows.shape[0]
    dims = lows.shape[1]
    if out is None:
        out = np.empty(n)
    kernel_weights = weights if ids is None else weights[ids]
    count = kernel_weights.size
    if count == 0 or n == 0:
        out[:n] = 0.0
        return out
    block = max(_BUFFER_ELEMENTS // count, 1)
    buffer = np.empty((min(block, n), count))
    for start in range(0, n, block):
        stop = min(start + block, n)
        masses = buffer[: stop - start]
        masses[:] = 1.0
        for axis in range(dims):
            np.multiply(
                masses,
                axis_mass(ids, axis, lows[start:stop, axis], highs[start:stop, axis]),
                out=masses,
            )
        np.matmul(masses, kernel_weights, out=out[start:stop])
    out[:n] /= total_weight
    return out


def _spatial_groups(
    lows: np.ndarray, highs: np.ndarray, index: KernelSupportIndex
) -> Iterator[np.ndarray]:
    """Cluster query boxes into spatially coherent evaluation groups.

    Nearby boxes share one culled candidate set, so grouping trades a
    slightly wider union box for full vectorisation across the group.  Box
    centers (clipped to the kernel position range, which keeps one-sided and
    full-domain boxes finite) are bucketed on a coarse grid sized for about
    ``_TARGET_GROUP`` queries per cell; each occupied cell is one group.
    """
    n, dims = lows.shape
    if n <= 1:
        yield np.arange(n)
        return
    position_low = index.axis_positions[:, 0]
    position_high = index.axis_positions[:, -1]
    centers = 0.5 * (
        np.maximum(lows, position_low) + np.minimum(highs, position_high)
    )
    span = position_high - position_low
    span = np.where(span > 0, span, 1.0)
    cells_per_axis = max(int(np.ceil((n / _TARGET_GROUP) ** (1.0 / dims))), 1)
    cells = ((centers - position_low) / span * cells_per_axis).astype(np.int64)
    np.clip(cells, 0, cells_per_axis - 1, out=cells)
    keys = np.zeros(n, dtype=np.int64)
    for axis in range(dims):
        keys *= cells_per_axis
        keys += cells[:, axis]
    order = np.argsort(keys, kind="stable")
    boundaries = np.flatnonzero(np.diff(keys[order])) + 1
    yield from np.split(order, boundaries)


def estimate_boxes(
    lows: np.ndarray,
    highs: np.ndarray,
    index: KernelSupportIndex,
    weights: np.ndarray,
    total_weight: float,
    axis_mass: AxisMass,
) -> np.ndarray | None:
    """Support-culled batch estimation over a kernel index.

    Routes each query by its tightest per-axis candidate count: wide queries
    (candidate fraction ≥ ``_DENSE_FRACTION``) run on the dense micro-kernel
    directly, selective queries are clustered into spatial groups and each
    group is evaluated against one shared culled candidate set.  Returns
    ``None`` when culling cannot pay at all (tiny synopses, or every query is
    wide) — the caller then takes the dense path itself.

    A one-box plan applies the same rule to its own count and then skips the
    grouping: one :meth:`~KernelSupportIndex.box_candidates` probe supplies
    its candidate set.  Its answer is bitwise the grouped route's for that
    box.
    """
    n = lows.shape[0]
    route_metrics = _ROUTE_METRICS.value
    if index.kernel_count < _MIN_KERNELS or n == 0:
        if route_metrics is not None and n:
            route_metrics.counter("fastpath.dense_queries").inc(n)
        return None
    if n == 1:
        if index.candidate_counts(lows, highs).min() >= index.kernel_count * _DENSE_FRACTION:
            if route_metrics is not None:
                route_metrics.counter("fastpath.dense_queries").inc(1)
            return None
        if route_metrics is not None:
            route_metrics.counter("fastpath.culled_queries").inc(1)
        ids = index.box_candidates(lows[0], highs[0])
        if ids.size == 0:
            return np.zeros(1)  # no kernel reaches the box: mass 0
        return weighted_box_masses(lows, highs, axis_mass, weights, total_weight, ids=ids)
    counts = index.candidate_counts(lows, highs)
    tightest = counts.min(axis=1)
    selective = tightest < index.kernel_count * _DENSE_FRACTION
    if not selective.any():
        if route_metrics is not None:
            route_metrics.counter("fastpath.dense_queries").inc(n)
        return None
    out = np.zeros(n)
    wide = np.flatnonzero(~selective)
    if route_metrics is not None:
        if wide.size:
            route_metrics.counter("fastpath.dense_queries").inc(int(wide.size))
        route_metrics.counter("fastpath.culled_queries").inc(int(n - wide.size))
    if wide.size:
        out[wide] = weighted_box_masses(
            lows[wide], highs[wide], axis_mass, weights, total_weight
        )
    chosen = np.flatnonzero(selective)
    for group in _spatial_groups(lows[chosen], highs[chosen], index):
        queries = chosen[group]
        union_low = lows[queries].min(axis=0)
        union_high = highs[queries].max(axis=0)
        ids = index.box_candidates(union_low, union_high)
        if ids.size == 0:
            continue  # no kernel reaches any box in the group: mass 0
        out[queries] = weighted_box_masses(
            lows[queries], highs[queries], axis_mass, weights, total_weight, ids=ids
        )
    return out
