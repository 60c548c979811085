"""Query-side fast path: kernel support culling + the batched CDF micro-kernel.

Every estimator of the kernel family (fixed KDE, adaptive KDE, the streaming
ADE and — through its wrapped base — the feedback wrapper) answers a range
query as a weighted sum of per-kernel product masses,

    ``sel(Q) = (1/W) Σ_i w_i Π_d mass_d(i, Q)``.

The dense evaluation is O(kernels × queries × dims) normal-CDF calls even
though a kernel more than a few bandwidths away from the query box
contributes essentially nothing.  This module supplies the two pieces that
make the family fast while keeping its answers within :data:`DEFAULT_ATOL`
of the dense path:

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
    gather only the survivors.  The same edges give
    :meth:`KernelSupportIndex.overlaps`, the (box, kernel) pair mask.

:func:`weighted_box_masses`
    The single batched product-kernel CDF micro-kernel, ``Σ_i w_i Π_d
    mass_d``: a blocked, preallocated-buffer pass over all kernels for the
    dense reference path, and a per-pair pass summed per box with
    ``np.bincount`` for the culled routes.  It replaces the near-duplicate
    inner loops that previously lived in ``core/kde.py`` and
    ``core/streaming.py`` (and that ``core/adaptive.py`` /
    ``core/feedback.py`` inherited).

Routes
------

:func:`estimate_boxes` answers a multi-box plan on the *grouped route*:
per-query candidate counts decide dense vs culled, wide boxes run on the
dense micro-kernel, and selective boxes are grid-clustered; a plan that fits
one grid cell (at most ``_TARGET_GROUP`` selective boxes) is one group,
without computing a grid.  Each group makes one
:meth:`KernelSupportIndex.box_candidates` probe for its union box;
:meth:`KernelSupportIndex.overlaps` then keeps, by comparisons alone, the
(box, kernel) pairs whose support edges overlap the box, and the
micro-kernel evaluates those pairs only.  The mask and its pairs are built
per block of boxes under the dense buffer's element bound.  A one-box plan
— the request an optimizer sends, one predicate at a time — takes the
*one-box route* instead: the box's :meth:`KernelSupportIndex.tightest_slice`
is its smallest candidate count, so the same dense/culled rule applies to
it; then no grouping and none of the group bookkeeping, just one
``box_candidates`` probe for the box, whose ids are already its pair
codes.  A culled box is therefore evaluated on the same pairs in the same
order on either route, so the one-box route answers bitwise what the grouped
route answers for it.  A dense-routed box agrees only within
:data:`DEFAULT_ATOL`: the dense ``matmul`` sums in an order that depends on
the block shape.  Upstream,
:func:`repro.workload.queries.compile_queries` builds the request's plan in
one pass over the queries into Python lists, so a 1-query request reaches
the route after a few microseconds of compilation.

*Broad boxes* skip the normal CDF in the Gaussian tails.  A box is broad
when it is at least twice the index's largest support radius wide on every
axis (:meth:`KernelSupportIndex.broad`; the one-box route asks
:meth:`KernelSupportIndex.is_broad`, the same test on Python floats).
Most CDF arguments of a broad box's pairs lie far in the tails, where
``ndtr`` is at its slowest and Φ is within 1e-14 of 0 or 1.  So every
micro-kernel call of a broad box passes ``tail=`` the index's
:attr:`~KernelSupportIndex.clamp_radius`, and :func:`clamped_normal_mass`
takes an argument beyond it as exactly 0 or 1.  On all three routes — the
one-box route, the grouped route, whose broad boxes form their own spatial
groups, and the dense route of wide boxes — a micro-kernel call is all
broad or all narrow, so a box's arithmetic depends only on the box and the
index, and the bitwise one-box and block guarantees above hold for broad
boxes too.  Narrow boxes, plans the route declines and everything inside
:func:`fastpath_disabled` keep the exact arithmetic; a plan with no broad
box runs the exact code after one vectorised width test.  Only broad boxes
clamp because the clamp costs six to eight numpy calls per micro-kernel
call, more than it saves on a narrow box's few tail arguments.

The repository benchmark (``perfbench/``) traces this module through the
module attributes ``estimate_boxes``, ``weighted_box_masses`` (reading the
box count from ``lows.shape[0]``) and ``KernelSupportIndex`` with its
``box_candidates(low, high)`` (one call per group), and the serving layer
through ``repro.serve.server.compile_queries``; these names are its trace
boundaries, so every route must call through them rather than around them.
The overlap mask runs inside ``estimate_boxes`` but outside
``weighted_box_masses``, so the benchmark counts it as routing time.

Epsilon / atol policy
---------------------

Culling an unbounded (Gaussian) kernel drops real mass, so the cull radius is
derived from a deviation budget: with per-image tail tolerance
``ε = atol / 24`` the radius is ``-ndtri(ε)`` (≈ 7.5 at the default
``atol = 1e-12``).  Every culled kernel image then contributes at most ``ε``
axis mass, and because the per-kernel weights are normalised, culling moves
an estimate by at most ``3·ε`` (three kernel images per axis under boundary
reflection — the reflected images of significant kernels provably fall
inside the same candidate interval, see ``KernelSupportIndex.box_candidates``).

Clamping a broad box's CDF arguments spends a second ``3·ε``.  In ``d``
dimensions the clamp radius is ``T_d = -ndtri(ε / (2d))`` (7.55, 7.65 and
7.70 for d = 1, 2 and 3), so a clamped CDF value moves by at most
``ε/(2d)``; an image's interval mass, a difference of two such values
clipped to ``[0, 1]``, by at most ``ε/d``; an axis mass of up to three
images by at most ``3ε/d``; and a product of ``d`` factors in ``[0, 1]`` by
at most the sum of its factors' moves, ``3ε``.  Normalised weights keep the
estimate's move within ``3·ε`` as well, so the documented deviation of a
fast-path estimate from the dense path is ``6·ε = atol/4``.  The safety
factor 24 leaves the rest for summation-order differences — the per-pair
sum of the culled routes against the dense ``matmul``, and the dense
``matmul`` across block shapes — which is what keeps one-row batches (the
scalar ``estimate`` sugar) within 1e-12 of large batches.  Culling only
drops mass, but a clamped value moves either way (a tail CDF of
``1 - 1e-16`` becomes 1), so a fast-path estimate may read above or below
the dense one.

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

The one switch is the :func:`fastpath_disabled` context manager: inside it
every kernel-family estimator answers on the dense reference path, which
the equivalence suite, the fast-path benchmark and ``perfbench/`` compare
against.  The switch and the route-count sink
(:func:`set_route_metrics`) are :class:`~repro.core.slot.Slot` values, so
reading either costs one attribute load.
"""

from __future__ import annotations

from typing import ContextManager, Iterator, Protocol

import numpy as np
from scipy import special

from repro.core.slot import Slot

__all__ = [
    "DEFAULT_ATOL",
    "KernelSupportIndex",
    "clamped_normal_mass",
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
#: two boundary reflections) times headroom for summation-order rounding
#: differences.
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
#: The grouped route bounds its (boxes-per-block × candidates) overlap mask
#: and pair blocks by the same count.
_BUFFER_ELEMENTS = 1 << 17


class AxisMass(Protocol):
    """Per-axis kernel mass, with the bounds already shaped for broadcasting.

    With ``ids=None`` the bounds are ``(block, 1)`` columns against all
    kernels and the result is ``(block, kernels)``; otherwise ``ids`` are the
    ``(P,)`` kernel ids of (box, kernel) pairs, the bounds their ``(P,)``
    boxes' bounds, and the result is ``(P,)``.  A Gaussian kernel given
    ``tail`` clamps its normal CDF beyond ``±tail``
    (:func:`clamped_normal_mass`); other kernels ignore it.
    """

    def __call__(
        self,
        ids: np.ndarray | None,
        axis: int,
        lows: np.ndarray,
        highs: np.ndarray,
        /,
        *,
        tail: float | None = None,
    ) -> np.ndarray: ...


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

    The one way to reach the dense path: the equivalence suite, the
    fast-path benchmark and ``perfbench/`` use it on the estimators they
    already built, and no estimator builds a support index inside it.
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
    *,
    tail: float | None = None,
) -> np.ndarray:
    """Mass of ``N(means, stds²)`` inside ``[lows, highs]``, elementwise.

    Uses ``ndtr`` (the normal CDF evaluated directly) — several times faster
    than composing ``erf``, and this is the hot function of batch estimation.
    With ``tail`` the standardised bounds go through
    :func:`clamped_normal_mass`, which skips ``ndtr`` beyond ``±tail``.
    """
    if tail is not None:
        z = np.subtract(np.stack((highs, lows)), means)
        np.divide(z, stds, out=z)
        return clamped_normal_mass(z, tail)
    mass = np.subtract(highs, means)
    np.divide(mass, stds, out=mass)
    special.ndtr(mass, out=mass)
    work = np.subtract(lows, means)
    np.divide(work, stds, out=work)
    special.ndtr(work, out=work)
    np.subtract(mass, work, out=mass)
    np.maximum(mass, 0.0, out=mass)
    return np.minimum(mass, 1.0, out=mass)


def clamped_normal_mass(z: np.ndarray, tail: float) -> np.ndarray:
    """``Φ(z[0]) − Φ(z[1])`` clipped to ``[0, 1]``, with Φ clamped beyond ``±tail``.

    ``z`` stacks the standardised upper and lower bounds of an interval
    mass.  An argument with ``|z| ≥ tail`` takes Φ's limit — exactly 1.0
    when it is positive, else 0.0 — which moves it by at most ``Φ(−tail)``;
    ``ndtr`` runs on the other arguments only, in one gather and one
    scatter.  The rest is :func:`normal_box_mass`'s arithmetic, so an
    interval whose two arguments lie inside ``±tail`` gets bitwise its
    unclamped mass.  (``ndtr(..., out=, where=)`` is not an option: on
    scipy 1.17.1 with numpy 2.4.6 it crashes the process from about 1,000
    elements.)
    """
    cdf = (z > 0).astype(float)
    inner = np.flatnonzero(np.abs(z) < tail)
    cdf.reshape(-1)[inner] = special.ndtr(z.reshape(-1)[inner])
    mass = np.subtract(cdf[0], cdf[1], out=cdf[0])
    np.maximum(mass, 0.0, out=mass)
    return np.minimum(mass, 1.0, out=mass)


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
        "broad_widths",
        "clamp_radius",
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
        #: a box at least this wide on every axis is *broad* (:meth:`broad`)
        self.broad_widths = 2.0 * self.max_radii
        #: the standardised radius beyond which a broad box's micro-kernel
        #: takes the normal CDF as exactly 0 or 1 (see the module docstring)
        self.clamp_radius = gaussian_tail_radius(cull_epsilon() / (2 * self.dims))
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
        drive the grouped route's dense-vs-culled routing; a single box gets
        its smallest count from :meth:`tightest_slice`.
        """
        counts = np.empty(lows.shape, dtype=np.int64)
        for axis in range(self.dims):
            positions = self.axis_positions[axis]
            radius = self.max_radii[axis]
            starts = positions.searchsorted(lows[:, axis] - radius, side="left")
            stops = positions.searchsorted(highs[:, axis] + radius, side="right")
            counts[:, axis] = stops - starts
        return counts

    def tightest_slice(self, low: np.ndarray, high: np.ndarray) -> tuple[int, int, int]:
        """``(start, stop, axis)``: the box's fewest-kernel axis and its slice.

        The same two probes per axis as :meth:`candidate_counts`, on the
        same float64 bounds ``lo - radius`` / ``hi + radius``, made with
        Python floats for a single box; ``stop - start`` is therefore the
        box's smallest candidate count (the first such axis on ties), and
        ``axis_orders[axis, start:stop]`` its candidate slice.
        """
        best = None
        for axis, (lo, hi, radius) in enumerate(
            zip(low.tolist(), high.tolist(), self.max_radii.tolist())
        ):
            positions = self.axis_positions[axis]
            start = positions.searchsorted(lo - radius, side="left")
            stop = positions.searchsorted(hi + radius, side="right")
            if best is None or stop - start < best[1] - best[0]:
                best = (start, stop, axis)
        return best

    def broad(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Per-box flags: is the box at least :attr:`broad_widths` wide on every axis.

        A broad box is at least twice the largest support radius wide on
        each axis, so most of its pairs' CDF arguments lie in the Gaussian
        tails; the micro-kernel clamps them (see the module docstring).
        """
        return np.logical_and.reduce(highs - lows >= self.broad_widths, axis=1)

    def is_broad(self, low: np.ndarray, high: np.ndarray) -> bool:
        """:meth:`broad` for a single box, made with Python floats.

        The same float64 differences and comparisons, so the one-box route
        and the grouped route always agree on a box.
        """
        for lo, hi, width in zip(low.tolist(), high.tolist(), self.broad_widths.tolist()):
            if not hi - lo >= width:
                return False
        return True

    def box_candidates(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Ascending kernel ids whose support can overlap the box ``[low, high]``.

        The :meth:`tightest_slice` of the box supplies the initial contiguous
        slice of one axis's sort order; every axis (including that one) then
        refines with the exact per-kernel support edges, so the result is the
        intersection of the per-axis support overlaps.  Reflected kernel
        images (boundary-corrected KDE) need no extra probes: a reflected
        image overlaps a domain-clipped interval only if its source kernel
        sits within one support radius of the interval, which places the
        source inside the same candidate slice.
        """
        start, stop, primary = self.tightest_slice(low, high)
        bounds = list(zip(low.tolist(), high.tolist()))
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

    def overlaps(self, lows: np.ndarray, highs: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Ascending pair codes ``box * kernel_count + id`` of overlapping pairs.

        ``ids`` are ascending kernel ids (a group's :meth:`box_candidates`);
        a pair survives when the kernel's support edges overlap the box on
        every axis.  Comparisons only, no CDF — the mask the grouped route
        runs between its candidate probe and the micro-kernel.  For a single
        box the codes are the ids that :meth:`box_candidates` returns for it.
        """
        keep = np.ones((lows.shape[0], ids.size), dtype=bool)
        work = np.empty_like(keep)
        for axis in range(self.dims):
            np.greater_equal(self.upper_edges[axis][ids], lows[:, axis, None], out=work)
            keep &= work
            np.less_equal(self.lower_edges[axis][ids], highs[:, axis, None], out=work)
            keep &= work
        boxes, positions = np.divmod(np.flatnonzero(keep), ids.size)
        return boxes * self.kernel_count + ids[positions]


def weighted_box_masses(
    lows: np.ndarray,
    highs: np.ndarray,
    axis_mass: AxisMass,
    weights: np.ndarray,
    total_weight: float,
    ids: np.ndarray | None = None,
    out: np.ndarray | None = None,
    *,
    tail: float | None = None,
) -> np.ndarray:
    """The product-kernel CDF micro-kernel: ``(1/W) Σ_i w_i Π_d mass_d(i)``.

    With ``ids=None`` every query box in ``(lows, highs)`` is evaluated
    against all kernels, blocked over queries with one preallocated
    ``(block, kernels)`` accumulation buffer so arbitrarily large batches
    stay cache resident; ``axis_mass`` then receives ``(block, 1)`` bound
    columns.  Otherwise ``ids`` holds ascending pair codes
    ``box * len(weights) + kernel`` (see :meth:`KernelSupportIndex.overlaps`):
    only those pairs are evaluated, ``axis_mass`` receives ``(P,)`` bounds
    against ``(P,)`` kernel ids, and each box's weighted terms are summed in
    code order with ``np.bincount`` (a box without pairs gets 0).  This is
    the single inner loop of the whole estimator family — the dense
    reference path runs it over all kernels, the fast path over culled pairs.
    ``tail`` is handed to every ``axis_mass`` call: the clamp radius for a
    call made only of broad boxes, else ``None`` (exact CDFs).
    """
    n = lows.shape[0]
    dims = lows.shape[1]
    if out is None:
        out = np.empty(n)
    if ids is not None:
        if ids.size == 0:
            out[:n] = 0.0
            return out
        boxes, kernels = np.divmod(ids, weights.size)
        terms = np.ones(ids.size)
        for axis in range(dims):
            terms *= axis_mass(
                kernels, axis, lows[:, axis][boxes], highs[:, axis][boxes], tail=tail
            )
        terms *= weights[kernels]
        out[:n] = np.bincount(boxes, weights=terms, minlength=n)
        out[:n] /= total_weight
        return out
    count = weights.size
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
            low = lows[start:stop, axis, None]
            high = highs[start:stop, axis, None]
            np.multiply(masses, axis_mass(None, axis, low, high, tail=tail), out=masses)
        np.matmul(masses, weights, out=out[start:stop])
    out[:n] /= total_weight
    return out


def _spatial_groups(
    lows: np.ndarray, highs: np.ndarray, index: KernelSupportIndex
) -> Iterator[np.ndarray]:
    """Cluster query boxes into spatially coherent evaluation groups.

    Nearby boxes share one candidate probe for their union box, which the
    per-box overlap mask then narrows to each box's own pairs.  Box
    centers (clipped to the kernel position range, which keeps one-sided and
    full-domain boxes finite) are bucketed on a coarse grid sized for about
    ``_TARGET_GROUP`` queries per cell; each occupied cell is one group.  A
    grid of one cell needs no bucketing: its one group is every box, in plan
    order.
    """
    n, dims = lows.shape
    cells_per_axis = max(int(np.ceil((n / _TARGET_GROUP) ** (1.0 / dims))), 1)
    if cells_per_axis == 1:
        yield np.arange(n)
        return
    position_low = index.axis_positions[:, 0]
    position_high = index.axis_positions[:, -1]
    centers = 0.5 * (
        np.maximum(lows, position_low) + np.minimum(highs, position_high)
    )
    span = position_high - position_low
    span = np.where(span > 0, span, 1.0)
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
    directly, selective queries are clustered into spatial groups.  Each
    group makes one :meth:`~KernelSupportIndex.box_candidates` probe for its
    union box, keeps the (box, kernel) pairs whose supports overlap
    (:meth:`~KernelSupportIndex.overlaps`, per block of boxes) and runs the
    micro-kernel on those pairs.  Returns ``None`` when culling cannot pay
    at all (tiny synopses, or every query is wide) — the caller then takes
    the dense path itself.

    A one-box plan applies the same rule to its own count, the length of its
    :meth:`~KernelSupportIndex.tightest_slice` (the minimum of
    :meth:`~KernelSupportIndex.candidate_counts` without building its
    arrays), and then skips the grouping: one ``box_candidates`` probe
    supplies its pairs.  A culled box is answered bitwise as the grouped
    route answers it; a dense-routed box within :data:`DEFAULT_ATOL` (the
    dense ``matmul`` sums in a block-shape-dependent order).  Broad boxes
    are answered apart from the others, with the normal CDF clamped in the
    tails (see "Routes" in the module docstring).
    """
    n = lows.shape[0]
    route_metrics = _ROUTE_METRICS.value
    if index.kernel_count < _MIN_KERNELS or n == 0:
        if route_metrics is not None and n:
            route_metrics.counter("fastpath.dense_queries").inc(n)
        return None
    if n == 1:
        low, high = lows[0], highs[0]
        start, stop, _ = index.tightest_slice(low, high)
        if stop - start >= index.kernel_count * _DENSE_FRACTION:
            if route_metrics is not None:
                route_metrics.counter("fastpath.dense_queries").inc(1)
            return None
        if route_metrics is not None:
            route_metrics.counter("fastpath.culled_queries").inc(1)
        ids = index.box_candidates(low, high)
        if ids.size == 0:
            return np.zeros(1)  # no kernel reaches the box: mass 0
        tail = index.clamp_radius if index.is_broad(low, high) else None
        return weighted_box_masses(
            lows, highs, axis_mass, weights, total_weight, ids=ids, tail=tail
        )
    counts = index.candidate_counts(lows, highs)
    tightest = counts.min(axis=1)
    selective = tightest < index.kernel_count * _DENSE_FRACTION
    if not selective.any():
        if route_metrics is not None:
            route_metrics.counter("fastpath.dense_queries").inc(n)
        return None
    out = np.zeros(n)
    wide = ~selective
    if route_metrics is not None:
        wide_count = int(np.count_nonzero(wide))
        if wide_count:
            route_metrics.counter("fastpath.dense_queries").inc(wide_count)
        route_metrics.counter("fastpath.culled_queries").inc(n - wide_count)

    def evaluate(dense_flags: np.ndarray, culled_flags: np.ndarray, tail: float | None) -> None:
        """Answer the flagged boxes into ``out``, every micro-kernel call with ``tail``."""
        dense = np.flatnonzero(dense_flags)
        if dense.size:
            out[dense] = weighted_box_masses(
                lows[dense], highs[dense], axis_mass, weights, total_weight, tail=tail
            )
        chosen = np.flatnonzero(culled_flags)
        if chosen.size == 0:
            return
        for group in _spatial_groups(lows[chosen], highs[chosen], index):
            queries = chosen[group]
            group_lows, group_highs = lows[queries], highs[queries]
            ids = index.box_candidates(group_lows.min(axis=0), group_highs.max(axis=0))
            if ids.size == 0:
                continue  # no kernel reaches any box in the group: mass 0
            # The overlap mask and its pairs are built per block of boxes, under
            # the same element bound as the dense micro-kernel's buffer.
            block = max(_BUFFER_ELEMENTS // ids.size, 1)
            for start in range(0, queries.size, block):
                block_lows = group_lows[start : start + block]
                block_highs = group_highs[start : start + block]
                pairs = index.overlaps(block_lows, block_highs, ids)
                out[queries[start : start + block]] = weighted_box_masses(
                    block_lows, block_highs, axis_mass, weights, total_weight,
                    ids=pairs, tail=tail,
                )

    # Broad boxes are answered apart, so every micro-kernel call is all
    # broad (clamped) or all narrow (exact), and no narrow group shares a
    # broad box's union probe.
    broad = index.broad(lows, highs)
    if np.count_nonzero(broad):
        narrow = ~broad
        evaluate(wide & narrow, selective & narrow, None)
        evaluate(wide & broad, selective & broad, index.clamp_radius)
    else:
        evaluate(wide, selective, None)
    return out
