"""Synthetic dataset generators.

The evaluation replaces the (unavailable) real relations with synthetic data
whose distributional features — skew, multi-modality, correlation, cluster
structure — are the ones that drive selectivity-estimation error.  Every
generator returns a :class:`~repro.engine.table.Table` and takes an explicit
seed, so experiments are reproducible.

Generators
----------
* :func:`uniform_table` — independent uniform attributes (the easy case).
* :func:`gaussian_mixture_table` — multimodal clustered data; the standard
  hard case for fixed-bandwidth and coarse-histogram synopses.
* :func:`zipf_table` — heavy-tailed, highly skewed values (mapped into a
  continuous domain), modelling skewed fact-table measures.
* :func:`correlated_table` — linearly correlated attributes, the case where
  AVI estimators fail.
* :func:`clustered_table` — axis-aligned clusters with background noise.
* :func:`mixed_table` — one skewed, one multimodal and one correlated pair of
  attributes, used by the multi-dimensional accuracy experiments.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.engine.table import Table, TableSchema

__all__ = [
    "uniform_table",
    "gaussian_mixture_table",
    "zipf_table",
    "correlated_table",
    "clustered_table",
    "mixed_table",
    "mixed_type_table",
    "gaussian_mixture_density",
    "sample_gaussian_mixture",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _column_names(dimensions: int, names: Sequence[str] | None) -> list[str]:
    if names is not None:
        if len(names) != dimensions:
            raise InvalidParameterError(f"{len(names)} names given for {dimensions} attributes")
        return list(names)
    return [f"x{i}" for i in range(dimensions)]


def uniform_table(
    rows: int,
    dimensions: int = 1,
    low: float = 0.0,
    high: float = 1.0,
    seed: int | np.random.Generator | None = 0,
    name: str = "uniform",
    column_names: Sequence[str] | None = None,
) -> Table:
    """Independent uniform attributes on ``[low, high]``."""
    if rows < 0:
        raise InvalidParameterError("rows must be non-negative")
    if high <= low:
        raise InvalidParameterError("high must exceed low")
    rng = _rng(seed)
    data = rng.uniform(low, high, size=(rows, dimensions))
    return Table.from_array(name, data, _column_names(dimensions, column_names))


def sample_gaussian_mixture(
    rows: int,
    means: np.ndarray,
    stds: np.ndarray,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``rows`` points from a Gaussian mixture (any dimensionality)."""
    means = np.atleast_2d(np.asarray(means, dtype=float))
    stds = np.atleast_2d(np.asarray(stds, dtype=float))
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    components = rng.choice(means.shape[0], size=rows, p=weights)
    noise = rng.standard_normal(size=(rows, means.shape[1]))
    return means[components] + noise * stds[components]


def gaussian_mixture_density(
    points: np.ndarray, means: np.ndarray, stds: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """True density of a diagonal-covariance Gaussian mixture at ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    stds = np.atleast_2d(np.asarray(stds, dtype=float))
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    density = np.zeros(points.shape[0])
    for mean, std, weight in zip(means, stds, weights):
        z = (points - mean) / std
        component = np.exp(-0.5 * np.sum(z * z, axis=1))
        component /= np.prod(std) * (2 * math.pi) ** (points.shape[1] / 2)
        density += weight * component
    return density


def gaussian_mixture_table(
    rows: int,
    dimensions: int = 1,
    components: int = 3,
    separation: float = 3.0,
    seed: int | np.random.Generator | None = 0,
    name: str = "gaussian_mixture",
    column_names: Sequence[str] | None = None,
) -> Table:
    """Multimodal data: ``components`` Gaussian clusters spread along the diagonal.

    ``separation`` controls how far apart the modes are (in units of the
    component standard deviation); larger values give more sharply multimodal
    data, which is harder for over-smoothing estimators.
    """
    if components < 1:
        raise InvalidParameterError("components must be positive")
    if separation < 0:
        raise InvalidParameterError("separation must be non-negative")
    rng = _rng(seed)
    std = 1.0
    centers = np.arange(components, dtype=float) * separation * std
    means = np.tile(centers[:, None], (1, dimensions))
    # Per-component jitter so clusters are not perfectly on the diagonal.
    means += rng.uniform(-0.5, 0.5, size=means.shape) * std
    stds = np.full((components, dimensions), std)
    stds *= rng.uniform(0.6, 1.4, size=stds.shape)
    weights = rng.uniform(0.5, 1.5, size=components)
    data = sample_gaussian_mixture(rows, means, stds, weights, rng)
    return Table.from_array(name, data, _column_names(dimensions, column_names))


def zipf_table(
    rows: int,
    dimensions: int = 1,
    theta: float = 1.0,
    distinct: int = 1000,
    domain: float = 1000.0,
    seed: int | np.random.Generator | None = 0,
    name: str = "zipf",
    column_names: Sequence[str] | None = None,
) -> Table:
    """Zipf-skewed data mapped onto a continuous domain.

    Value ranks follow a Zipf distribution with exponent ``theta`` over
    ``distinct`` distinct values, then ranks are mapped to positions in
    ``[0, domain]`` with a small uniform jitter so columns remain continuous.
    ``theta = 0`` is uniform; ``theta = 2`` is extremely skewed.
    """
    if theta < 0:
        raise InvalidParameterError("theta must be non-negative")
    if distinct < 1:
        raise InvalidParameterError("distinct must be positive")
    rng = _rng(seed)
    ranks = np.arange(1, distinct + 1, dtype=float)
    probabilities = ranks ** (-theta) if theta > 0 else np.ones(distinct)
    probabilities /= probabilities.sum()
    width = domain / distinct
    columns = []
    for _ in range(dimensions):
        chosen = rng.choice(distinct, size=rows, p=probabilities)
        positions = chosen * width + rng.uniform(0.0, width, size=rows)
        columns.append(positions)
    data = np.column_stack(columns) if columns else np.empty((rows, 0))
    return Table.from_array(name, data, _column_names(dimensions, column_names))


def correlated_table(
    rows: int,
    dimensions: int = 2,
    correlation: float = 0.8,
    seed: int | np.random.Generator | None = 0,
    name: str = "correlated",
    column_names: Sequence[str] | None = None,
) -> Table:
    """Jointly Gaussian attributes with pairwise correlation ``correlation``."""
    if dimensions < 2:
        raise InvalidParameterError("correlated_table needs at least 2 dimensions")
    if not -1.0 < correlation < 1.0:
        raise InvalidParameterError("correlation must lie strictly inside (-1, 1)")
    rng = _rng(seed)
    covariance = np.full((dimensions, dimensions), correlation)
    np.fill_diagonal(covariance, 1.0)
    data = rng.multivariate_normal(np.zeros(dimensions), covariance, size=rows)
    return Table.from_array(name, data, _column_names(dimensions, column_names))


def clustered_table(
    rows: int,
    dimensions: int = 2,
    clusters: int = 5,
    noise_fraction: float = 0.1,
    seed: int | np.random.Generator | None = 0,
    name: str = "clustered",
    column_names: Sequence[str] | None = None,
) -> Table:
    """Random compact clusters plus a uniform background noise component."""
    if clusters < 1:
        raise InvalidParameterError("clusters must be positive")
    if not 0.0 <= noise_fraction <= 1.0:
        raise InvalidParameterError("noise_fraction must lie in [0, 1]")
    rng = _rng(seed)
    noise_rows = int(round(rows * noise_fraction))
    cluster_rows = rows - noise_rows
    centers = rng.uniform(0.0, 100.0, size=(clusters, dimensions))
    radii = rng.uniform(0.5, 3.0, size=(clusters, dimensions))
    weights = rng.uniform(0.5, 1.5, size=clusters)
    cluster_data = sample_gaussian_mixture(cluster_rows, centers, radii, weights, rng)
    noise = rng.uniform(0.0, 100.0, size=(noise_rows, dimensions))
    data = np.vstack([cluster_data, noise]) if rows else np.empty((0, dimensions))
    rng.shuffle(data)
    return Table.from_array(name, data, _column_names(dimensions, column_names))


def mixed_table(
    rows: int,
    seed: int | np.random.Generator | None = 0,
    name: str = "mixed",
) -> Table:
    """A 4-attribute table mixing skew, multimodality and correlation.

    Attributes: ``skewed`` (Zipf), ``multimodal`` (3-component mixture),
    ``base`` and ``corr`` (Gaussian pair with correlation 0.85).
    """
    rng = _rng(seed)
    skewed = zipf_table(rows, 1, theta=1.2, seed=rng).column("x0")
    multimodal = gaussian_mixture_table(rows, 1, components=3, separation=4.0, seed=rng).column("x0")
    pair = correlated_table(rows, 2, correlation=0.85, seed=rng)
    return Table(
        name,
        {
            "skewed": skewed,
            "multimodal": multimodal,
            "base": pair.column("x0"),
            "corr": pair.column("x1"),
        },
    )


#: Prefix families used for the string column of :func:`mixed_type_table` —
#: shared prefixes make prefix predicates select meaningful row groups.
_PRODUCT_FAMILIES = ("auto", "bio", "chem", "data", "eco", "fin")

#: Region base names for the categorical column of :func:`mixed_type_table`.
_REGION_NAMES = (
    "north", "south", "east", "west", "central",
    "apac", "emea", "latam", "nordics", "midwest", "pacific", "atlantic",
)


def mixed_type_table(
    rows: int,
    seed: int | np.random.Generator | None = 0,
    name: str = "mixed_type",
    regions: int = 12,
    products: int = 120,
) -> Table:
    """A mixed-type table: numeric, categorical and string columns.

    Attributes: ``amount`` (Zipf-skewed numeric), ``score`` (3-component
    Gaussian mixture), ``region`` (categorical over ``regions`` skewed region
    names) and ``product`` (string; ``products`` names drawn from prefix
    families such as ``auto-0012``, so prefix predicates like ``auto-`` match
    whole families).  The returned table carries a :class:`TableSchema`
    declaring the non-numeric columns, dictionary-encoded on ingest.
    """
    if rows < 0:
        raise InvalidParameterError("rows must be non-negative")
    if regions < 1 or products < 1:
        raise InvalidParameterError("regions and products must be positive")
    rng = _rng(seed)
    amount = zipf_table(rows, 1, theta=1.1, domain=1000, seed=rng).column("x0")
    score = gaussian_mixture_table(
        rows, 1, components=3, separation=4.0, seed=rng
    ).column("x0")
    region_names = [
        _REGION_NAMES[i % len(_REGION_NAMES)]
        + ("" if i < len(_REGION_NAMES) else f"-{i // len(_REGION_NAMES)}")
        for i in range(regions)
    ]
    region_weights = 1.0 / np.arange(1, regions + 1)
    region_weights /= region_weights.sum()
    region = np.asarray(region_names, dtype=str)[
        rng.choice(regions, size=rows, p=region_weights)
    ]
    product_names = [
        f"{_PRODUCT_FAMILIES[i % len(_PRODUCT_FAMILIES)]}-{i:04d}"
        for i in range(products)
    ]
    product_weights = 1.0 / np.arange(1, products + 1) ** 0.8
    product_weights /= product_weights.sum()
    product = np.asarray(product_names, dtype=str)[
        rng.choice(products, size=rows, p=product_weights)
    ]
    schema = TableSchema({"region": "categorical", "product": "string"})
    return Table(
        name,
        {"amount": amount, "score": score, "region": region, "product": product},
        schema=schema,
    )
