"""Query workload generators.

Selectivity-estimation accuracy depends as much on the workload as on the
data, so the harness controls query generation explicitly:

* :class:`UniformWorkload` — query centres uniform over the attribute
  domains; query widths are a fixed fraction of the domain (the "volume"
  knob of Fig. 3).
* :class:`DataCenteredWorkload` — query centres drawn from the data itself,
  so most queries land where tuples are (the realistic OLAP case).
* :class:`SkewedWorkload` — query centres concentrated in a hot region of
  the domain (models a dashboard repeatedly querying the same slice; drives
  the feedback experiment, Fig. 6).

Every generator yields :class:`~repro.workload.queries.RangeQuery` objects
over a configurable subset of attributes and takes an explicit seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids a package cycle)
    from repro.engine.table import Table
from repro.workload.queries import (
    Interval,
    RangeQuery,
    SetMembership,
    StringPrefix,
    TypedQuery,
)

__all__ = [
    "WorkloadGenerator",
    "UniformWorkload",
    "DataCenteredWorkload",
    "SkewedWorkload",
    "TypedWorkload",
]


class WorkloadGenerator(ABC):
    """Base class of all workload generators.

    Parameters
    ----------
    table:
        The relation the queries target; used for attribute domains and (for
        data-centred workloads) for drawing query centres.
    attributes:
        Attributes the queries may constrain (default: all table columns).
    query_dimensions:
        Number of attributes each query constrains.  ``None`` constrains all
        of ``attributes``; an integer selects a random subset per query.
    volume_fraction:
        Width of each per-attribute interval as a fraction of the attribute's
        domain width.
    seed:
        Seed of the generator.
    """

    def __init__(
        self,
        table: Table,
        attributes: Sequence[str] | None = None,
        query_dimensions: int | None = None,
        volume_fraction: float = 0.1,
        seed: int | None = 0,
    ) -> None:
        self.table = table
        self.attributes = list(attributes) if attributes is not None else list(table.column_names)
        if not self.attributes:
            raise InvalidParameterError("workload needs at least one attribute")
        for attribute in self.attributes:
            if attribute not in table:
                raise InvalidParameterError(
                    f"table {table.name!r} has no column {attribute!r}"
                )
        if query_dimensions is not None and not 1 <= query_dimensions <= len(self.attributes):
            raise InvalidParameterError(
                "query_dimensions must lie between 1 and the number of attributes"
            )
        if not 0.0 < volume_fraction <= 1.0:
            raise InvalidParameterError("volume_fraction must lie in (0, 1]")
        self.query_dimensions = query_dimensions
        self.volume_fraction = float(volume_fraction)
        self.seed = seed
        self._domain = table.domain(self.attributes)

    # -- generation -----------------------------------------------------------
    def generate(self, count: int) -> list[RangeQuery]:
        """Generate ``count`` queries."""
        if count < 0:
            raise InvalidParameterError("count must be non-negative")
        rng = np.random.default_rng(self.seed)
        return [self._one_query(rng) for _ in range(count)]

    def __iter__(self) -> Iterator[RangeQuery]:
        rng = np.random.default_rng(self.seed)
        while True:
            yield self._one_query(rng)

    def _one_query(self, rng: np.random.Generator) -> RangeQuery:
        attributes = self._pick_attributes(rng)
        constraints: dict[str, Interval] = {}
        for attribute in attributes:
            low, high = self._domain[attribute]
            width = (high - low) * self.volume_fraction
            if width <= 0:
                width = max(abs(low), 1.0) * 1e-6
            center = self._pick_center(attribute, rng)
            constraints[attribute] = Interval(center - width / 2.0, center + width / 2.0)
        return RangeQuery(constraints)

    def _pick_attributes(self, rng: np.random.Generator) -> list[str]:
        if self.query_dimensions is None or self.query_dimensions >= len(self.attributes):
            return list(self.attributes)
        chosen = rng.choice(len(self.attributes), size=self.query_dimensions, replace=False)
        return [self.attributes[i] for i in sorted(chosen)]

    @abstractmethod
    def _pick_center(self, attribute: str, rng: np.random.Generator) -> float:
        """Pick the centre of the query interval on ``attribute``."""


class UniformWorkload(WorkloadGenerator):
    """Query centres uniform over each attribute's domain."""

    def _pick_center(self, attribute: str, rng: np.random.Generator) -> float:
        low, high = self._domain[attribute]
        if high <= low:
            return low
        return float(rng.uniform(low, high))


class DataCenteredWorkload(WorkloadGenerator):
    """Query centres drawn from actual data values (plus a small jitter)."""

    def __init__(
        self,
        table: Table,
        attributes: Sequence[str] | None = None,
        query_dimensions: int | None = None,
        volume_fraction: float = 0.1,
        jitter_fraction: float = 0.01,
        seed: int | None = 0,
    ) -> None:
        super().__init__(table, attributes, query_dimensions, volume_fraction, seed)
        if jitter_fraction < 0:
            raise InvalidParameterError("jitter_fraction must be non-negative")
        self.jitter_fraction = float(jitter_fraction)
        self._center_row = 0

    def _one_query(self, rng: np.random.Generator) -> RangeQuery:
        # Centre every attribute of one query on the SAME data record: on
        # correlated or clustered data, drawing each attribute's centre
        # independently would produce boxes between the clusters that no
        # realistic workload would ask.
        if self.table.row_count == 0:
            return super()._one_query(rng)
        self._center_row = int(rng.integers(0, self.table.row_count))
        return super()._one_query(rng)

    def _pick_center(self, attribute: str, rng: np.random.Generator) -> float:
        values = self.table.column(attribute)
        low, high = self._domain[attribute]
        if values.size == 0:
            return low
        center = float(values[self._center_row])
        jitter = (high - low) * self.jitter_fraction
        if jitter > 0:
            center += float(rng.uniform(-jitter, jitter))
        return center


class SkewedWorkload(WorkloadGenerator):
    """Query centres concentrated in a hot sub-region of every attribute.

    Parameters
    ----------
    hot_fraction:
        Width of the hot region as a fraction of the domain.
    hot_probability:
        Probability that a query centre falls in the hot region.
    hot_position:
        Relative position of the hot region's centre inside the domain.
    """

    def __init__(
        self,
        table: Table,
        attributes: Sequence[str] | None = None,
        query_dimensions: int | None = None,
        volume_fraction: float = 0.1,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.9,
        hot_position: float = 0.5,
        seed: int | None = 0,
    ) -> None:
        super().__init__(table, attributes, query_dimensions, volume_fraction, seed)
        if not 0.0 < hot_fraction <= 1.0:
            raise InvalidParameterError("hot_fraction must lie in (0, 1]")
        if not 0.0 <= hot_probability <= 1.0:
            raise InvalidParameterError("hot_probability must lie in [0, 1]")
        if not 0.0 <= hot_position <= 1.0:
            raise InvalidParameterError("hot_position must lie in [0, 1]")
        self.hot_fraction = float(hot_fraction)
        self.hot_probability = float(hot_probability)
        self.hot_position = float(hot_position)

    def _pick_center(self, attribute: str, rng: np.random.Generator) -> float:
        low, high = self._domain[attribute]
        if high <= low:
            return low
        width = high - low
        if rng.random() < self.hot_probability:
            hot_center = low + self.hot_position * width
            hot_width = width * self.hot_fraction
            return float(rng.uniform(hot_center - hot_width / 2.0, hot_center + hot_width / 2.0))
        return float(rng.uniform(low, high))


class TypedWorkload(UniformWorkload):
    """Typed predicates matching the schema of a mixed-type table.

    Numeric attributes get uniform-centred intervals exactly like
    :class:`UniformWorkload`.  Categorical attributes get IN sets of up to
    ``max_in_size`` dictionary values; string attributes get a prefix cut
    from a randomly drawn dictionary entry (``max_prefix_length`` caps its
    length).  Tables without a schema degrade to all-numeric behaviour, just
    wrapped in :class:`~repro.workload.queries.TypedQuery` nodes.
    """

    def __init__(
        self,
        table: Table,
        attributes: Sequence[str] | None = None,
        query_dimensions: int | None = None,
        volume_fraction: float = 0.1,
        max_in_size: int = 4,
        max_prefix_length: int | None = None,
        seed: int | None = 0,
    ) -> None:
        super().__init__(table, attributes, query_dimensions, volume_fraction, seed)
        if max_in_size < 1:
            raise InvalidParameterError("max_in_size must be positive")
        if max_prefix_length is not None and max_prefix_length < 1:
            raise InvalidParameterError("max_prefix_length must be positive")
        self.max_in_size = int(max_in_size)
        self.max_prefix_length = max_prefix_length

    def _one_query(self, rng: np.random.Generator) -> TypedQuery:
        schema = self.table.schema
        constraints: dict[str, object] = {}
        for attribute in self._pick_attributes(rng):
            if schema is None or not schema.is_encoded(attribute):
                low, high = self._domain[attribute]
                width = (high - low) * self.volume_fraction
                if width <= 0:
                    width = max(abs(low), 1.0) * 1e-6
                center = self._pick_center(attribute, rng)
                constraints[attribute] = Interval(
                    center - width / 2.0, center + width / 2.0
                )
                continue
            dictionary = schema.dictionary(attribute)
            from repro.engine.table import ColumnKind  # lazy: avoids a cycle

            if schema.kind(attribute) is ColumnKind.STRING:
                word = dictionary[int(rng.integers(0, len(dictionary)))]
                cap = self.max_prefix_length or len(word)
                length = int(rng.integers(1, max(min(cap, len(word)), 1) + 1))
                constraints[attribute] = StringPrefix(word[:length])
            else:
                size = int(rng.integers(1, min(self.max_in_size, len(dictionary)) + 1))
                chosen = rng.choice(len(dictionary), size=size, replace=False)
                constraints[attribute] = SetMembership(
                    [dictionary[int(i)] for i in chosen]
                )
        return TypedQuery(constraints)
