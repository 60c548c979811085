"""Fixed-bandwidth kernel density selectivity estimator.

:class:`KDESelectivityEstimator` is the classical kernel-based synopsis: a
uniform random sample of the relation is retained and every sample point is
smoothed with a product kernel.  The selectivity of a conjunctive range
predicate ``Π_d [a_d, b_d]`` is the model mass inside the box,

    ``sel(Q) = (1/W) Σ_i w_i Π_d [ F_d((b_d - x_{id}) / h_d) - F_d((a_d - x_{id}) / h_d) ]``

which is closed form for product kernels because the box factorises per
attribute.  Optional boundary correction by reflection keeps mass from
leaking outside the attribute domains (important for bounded domains such as
``[0, 1]`` grades or ages).

The estimator is *space budgeted*: its footprint is the retained sample plus
one bandwidth per attribute, so it can be compared with histograms and other
synopses at equal byte budgets.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core import fastpath
from repro.core.bandwidth import select_bandwidth
from repro.core.errors import InvalidParameterError
from repro.core.estimator import (
    FLOAT_BYTES,
    SelectivityEstimator,
    register_estimator,
)
from repro.core.kernels import GaussianKernel, Kernel, get_kernel
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table

__all__ = ["KDESelectivityEstimator"]


@register_estimator("kde")
class KDESelectivityEstimator(SelectivityEstimator):
    """Sample-based product-kernel density estimator for range selectivities.

    Parameters
    ----------
    sample_size:
        Number of rows retained from the relation.  ``None`` keeps all rows.
    kernel:
        Kernel name or :class:`~repro.core.kernels.Kernel` instance.
    bandwidth_rule:
        ``"scott"``, ``"silverman"``, ``"lscv"`` or ``"mlcv"``; or pass
        explicit per-attribute bandwidths via ``bandwidths``.
    bandwidths:
        Optional explicit bandwidths (sequence aligned with the fitted
        columns), overriding ``bandwidth_rule``.
    boundary_correction:
        When true, sample points are reflected at the attribute domain
        boundaries so no probability mass falls outside the observed domain.
    seed:
        Seed for the sampling generator (reproducibility).
    """

    name = "kde"

    def __init__(
        self,
        sample_size: int | None = 1000,
        kernel: str | Kernel = "gaussian",
        bandwidth_rule: str = "scott",
        bandwidths: Sequence[float] | None = None,
        boundary_correction: bool = True,
        seed: int | None = 0,
    ) -> None:
        super().__init__()
        if sample_size is not None and sample_size < 1:
            raise InvalidParameterError("sample_size must be positive or None")
        self.sample_size = sample_size
        self.kernel = get_kernel(kernel)
        self.bandwidth_rule = bandwidth_rule
        self._explicit_bandwidths = (
            np.asarray(bandwidths, dtype=float) if bandwidths is not None else None
        )
        self.boundary_correction = boundary_correction
        self.seed = seed

        self._points: np.ndarray = np.empty((0, 0))
        self._weights: np.ndarray = np.empty(0)
        self._bandwidths: np.ndarray = np.empty(0)
        self._domain_low: np.ndarray = np.empty(0)
        self._domain_high: np.ndarray = np.empty(0)
        # Staleness counter + cached (epoch, KernelSupportIndex) pair for the
        # query fast path; every synopsis mutation bumps the epoch and the
        # index is rebuilt lazily on the next estimate (one atomic attribute,
        # so concurrent readers at worst rebuild — an idempotent race).
        self._synopsis_epoch = 0
        self._support_cache: tuple[int, fastpath.KernelSupportIndex] | None = None

    # -- fitting -------------------------------------------------------------
    def fit(self, table: Table, columns: Sequence[str] | None = None) -> "KDESelectivityEstimator":
        columns = self._resolve_columns(table, columns)
        data = table.columns(columns)
        rng = np.random.default_rng(self.seed)
        if self.sample_size is not None and data.shape[0] > self.sample_size:
            index = rng.choice(data.shape[0], size=self.sample_size, replace=False)
            sample = data[index]
        else:
            sample = data.copy()
        self._points = sample
        self._weights = np.ones(sample.shape[0], dtype=float)
        self._fit_domain(data)
        self._fit_bandwidths(sample, rng)
        self._invalidate_support_index()
        self._mark_fitted(columns, table.row_count)
        return self

    def _invalidate_support_index(self) -> None:
        """Bump the staleness counter: the synopsis geometry changed."""
        self._synopsis_epoch += 1
        self._support_cache = None

    def _fit_domain(self, data: np.ndarray) -> None:
        if data.size == 0:
            dims = data.shape[1] if data.ndim == 2 else 0
            self._domain_low = np.zeros(dims)
            self._domain_high = np.ones(dims)
            return
        self._domain_low = data.min(axis=0).astype(float)
        self._domain_high = data.max(axis=0).astype(float)

    def _fit_bandwidths(self, sample: np.ndarray, rng: np.random.Generator) -> None:
        dims = sample.shape[1]
        if self._explicit_bandwidths is not None:
            if self._explicit_bandwidths.size != dims:
                raise InvalidParameterError(
                    f"{self._explicit_bandwidths.size} bandwidths supplied for {dims} attributes"
                )
            if np.any(self._explicit_bandwidths <= 0):
                raise InvalidParameterError("bandwidths must be positive")
            self._bandwidths = self._explicit_bandwidths.copy()
            return
        if sample.shape[0] == 0:
            # Zero-row fit: there is nothing to select a bandwidth from.  The
            # estimator stays usable and answers 0.0 (no sample points means
            # no mass anywhere); placeholder bandwidths keep every downstream
            # formula finite.
            self._bandwidths = np.ones(dims)
            return
        bandwidths = np.empty(dims)
        for d in range(dims):
            bandwidths[d] = select_bandwidth(
                sample[:, d],
                rule=self.bandwidth_rule,
                dimensions=dims,
                kernel=self.kernel,
                rng=rng,
            )
        self._bandwidths = bandwidths

    # -- persistence -----------------------------------------------------------
    def _config_params(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "kernel": self.kernel.name,
            "bandwidth_rule": self.bandwidth_rule,
            "bandwidths": (
                None
                if self._explicit_bandwidths is None
                else [float(b) for b in self._explicit_bandwidths]
            ),
            "boundary_correction": self.boundary_correction,
            "seed": self.seed,
        }

    def _state(self) -> tuple[dict, dict]:
        arrays = {
            "points": self._points,
            "weights": self._weights,
            "bandwidths": self._bandwidths,
            "domain_low": self._domain_low,
            "domain_high": self._domain_high,
        }
        return arrays, {}

    def _restore_state(self, arrays, meta) -> None:
        self._points = np.asarray(arrays["points"], dtype=float)
        self._weights = np.asarray(arrays["weights"], dtype=float)
        self._bandwidths = np.asarray(arrays["bandwidths"], dtype=float)
        self._domain_low = np.asarray(arrays["domain_low"], dtype=float)
        self._domain_high = np.asarray(arrays["domain_high"], dtype=float)
        self._invalidate_support_index()

    # -- introspection ---------------------------------------------------------
    @property
    def bandwidths(self) -> np.ndarray:
        """Per-attribute bandwidths chosen during ``fit``."""
        self._require_fitted()
        return self._bandwidths.copy()

    @property
    def sample_points(self) -> np.ndarray:
        """The retained sample (``(m, d)`` matrix)."""
        self._require_fitted()
        return self._points.copy()

    def set_bandwidths(self, bandwidths: Sequence[float]) -> None:
        """Override the per-attribute bandwidths of a fitted estimator."""
        self._require_fitted()
        bandwidths = np.asarray(bandwidths, dtype=float)
        if bandwidths.size != self._points.shape[1]:
            raise InvalidParameterError(
                f"{bandwidths.size} bandwidths supplied for {self._points.shape[1]} attributes"
            )
        if np.any(bandwidths <= 0):
            raise InvalidParameterError("bandwidths must be positive")
        self._bandwidths = bandwidths
        self._invalidate_support_index()

    def memory_bytes(self) -> int:
        self._require_fitted()
        sample_floats = self._points.size + self._weights.size
        parameter_floats = self._bandwidths.size + self._domain_low.size + self._domain_high.size
        return int((sample_floats + parameter_floats) * FLOAT_BYTES)

    # -- estimation -------------------------------------------------------------
    def _estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Box mass of the kernel mixture for ``(n, d)`` bound matrices.

        Selective batches run through the support-culling fast path
        (:func:`repro.core.fastpath.estimate_boxes`); everything else — and
        every batch inside :func:`~repro.core.fastpath.fastpath_disabled` —
        runs the dense reference path on the same batched product-kernel CDF
        micro-kernel.
        """
        n = lows.shape[0]
        if self._points.shape[0] == 0:
            return np.zeros(n)
        total_weight = float(self._weights.sum())
        if total_weight <= 0:
            return np.zeros(n)
        if fastpath.fastpath_enabled():
            culled = fastpath.estimate_boxes(
                lows, highs, self._support_index(), self._weights, total_weight,
                self._axis_mass,
            )
            if culled is not None:
                return culled
        return fastpath.weighted_box_masses(
            lows, highs, self._axis_mass, self._weights, total_weight
        )

    def _support_index(self) -> "fastpath.KernelSupportIndex":
        """The cached per-dimension support-culling index (lazily rebuilt)."""
        cached = self._support_cache
        if cached is not None and cached[0] == self._synopsis_epoch:
            return cached[1]
        index = fastpath.KernelSupportIndex(self._points, self._support_radii())
        self._support_cache = (self._synopsis_epoch, index)
        return index

    def _support_radii(self) -> np.ndarray:
        """Per-axis effective support radii (``(d,)``; subclasses widen per point)."""
        scale = self.kernel.effective_support_radius(fastpath.cull_epsilon())
        return self._bandwidths * scale

    def _axis_bandwidths(self, axis: int, ids: np.ndarray | None) -> float | np.ndarray:
        """Bandwidth(s) along one axis; adaptive subclasses return per-point arrays."""
        return float(self._bandwidths[axis])

    def _axis_mass(
        self,
        ids: np.ndarray | None,
        axis: int,
        low: np.ndarray,
        high: np.ndarray,
        *,
        tail: float | None = None,
    ) -> np.ndarray:
        """Kernel mass on one axis, with reflection (the micro-kernel's ``AxisMass``).

        With ``ids=None`` the bounds are ``(k, 1)`` columns against all ``m``
        sample points and the result is ``(k, m)``; otherwise ``ids`` are the
        ``(P,)`` point ids of (box, point) pairs and the bounds their ``(P,)``
        per-pair values.  Centers are pre-divided by the bandwidth so each CDF
        argument costs a single broadcast pass — this is the hot loop of
        batch estimation.  ``tail`` clamps a Gaussian kernel's CDF arguments
        (:func:`repro.core.fastpath.clamped_normal_mass`), image by image;
        other kernels ignore it.
        """
        centers = self._points[:, axis] if ids is None else self._points[ids, axis]
        h = self._axis_bandwidths(axis, ids)
        inv_h = 1.0 / h
        scaled_centers = centers * inv_h
        domain_low = self._domain_low[axis]
        domain_high = self._domain_high[axis]
        if not self.boundary_correction or not (
            math.isfinite(domain_low) and math.isfinite(domain_high)
        ):
            return self._scaled_axis_mass(scaled_centers, inv_h, low, high, tail)
        # Reflection: mirror each kernel at the domain boundaries and fold the
        # reflected mass that re-enters the query interval back in.  The query
        # interval is clipped to the domain first because no data exists outside.
        clipped_low = np.maximum(low, domain_low)
        clipped_high = np.minimum(high, domain_high)
        mass = self._scaled_axis_mass(scaled_centers, inv_h, clipped_low, clipped_high, tail)
        mass += self._scaled_axis_mass(
            (2.0 * domain_low - centers) * inv_h, inv_h, clipped_low, clipped_high, tail
        )
        mass += self._scaled_axis_mass(
            (2.0 * domain_high - centers) * inv_h, inv_h, clipped_low, clipped_high, tail
        )
        np.clip(mass, 0.0, 1.0, out=mass)
        empty = clipped_low > clipped_high
        if np.any(empty):
            np.copyto(mass, 0.0, where=empty)
        return mass

    def _scaled_axis_mass(
        self,
        scaled_centers: np.ndarray,
        inv_bandwidth: float | np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        tail: float | None,
    ) -> np.ndarray:
        """Kernel mass from pre-scaled centers: args are ``bound/h - center/h``."""
        if tail is not None and isinstance(self.kernel, GaussianKernel):
            z = np.stack((high, low)) * inv_bandwidth - scaled_centers
            return fastpath.clamped_normal_mass(z, tail)
        lower = low * inv_bandwidth - scaled_centers
        upper = high * inv_bandwidth - scaled_centers
        return self.kernel.interval_mass(lower, upper)

    # -- density (used by MISE metrics and the bandwidth ablation) ------------
    def density(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the estimated joint density at ``points`` (``(m, d)`` matrix)."""
        self._require_fitted()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self._points.shape[1]:
            raise InvalidParameterError(
                f"density expects {self._points.shape[1]}-dimensional points"
            )
        if self._points.shape[0] == 0:
            return np.zeros(points.shape[0])
        total_weight = float(self._weights.sum())
        result = np.zeros(points.shape[0])
        # Evaluate in blocks so memory stays bounded for large samples.
        block = 2048
        for start in range(0, points.shape[0], block):
            chunk = points[start : start + block]
            values = np.ones((chunk.shape[0], self._points.shape[0]))
            for d in range(self._points.shape[1]):
                h = self._bandwidths[d]
                u = (chunk[:, d, None] - self._points[None, :, d]) / h
                values *= self.kernel.pdf(u) / h
            result[start : start + block] = values @ self._weights / total_weight
        return result
