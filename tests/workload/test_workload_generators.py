"""Unit tests for the workload generators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.data.generators import gaussian_mixture_table, uniform_table
from repro.engine.table import Table
from repro.workload.generators import (
    DataCenteredWorkload,
    SkewedWorkload,
    UniformWorkload,
)


@pytest.fixture(scope="module")
def table() -> Table:
    return uniform_table(5000, dimensions=3, seed=41, column_names=["a", "b", "c"])


class TestCommonBehaviour:
    def test_generate_count(self, table: Table) -> None:
        queries = UniformWorkload(table, seed=1).generate(25)
        assert len(queries) == 25

    def test_zero_count(self, table: Table) -> None:
        assert UniformWorkload(table, seed=1).generate(0) == []

    def test_negative_count_raises(self, table: Table) -> None:
        with pytest.raises(InvalidParameterError):
            UniformWorkload(table, seed=1).generate(-1)

    def test_queries_constrain_all_attributes_by_default(self, table: Table) -> None:
        queries = UniformWorkload(table, seed=2).generate(10)
        for query in queries:
            assert query.attributes == ("a", "b", "c")

    def test_query_dimensions_subset(self, table: Table) -> None:
        queries = UniformWorkload(table, query_dimensions=2, seed=3).generate(20)
        for query in queries:
            assert query.dimensionality == 2
            assert set(query.attributes).issubset({"a", "b", "c"})

    def test_attribute_subset(self, table: Table) -> None:
        queries = UniformWorkload(table, attributes=["b"], seed=4).generate(5)
        for query in queries:
            assert query.attributes == ("b",)

    def test_volume_fraction_controls_width(self, table: Table) -> None:
        narrow = UniformWorkload(table, volume_fraction=0.01, seed=5).generate(20)
        wide = UniformWorkload(table, volume_fraction=0.5, seed=5).generate(20)
        narrow_width = np.mean([q["a"].width for q in narrow])
        wide_width = np.mean([q["a"].width for q in wide])
        assert wide_width > narrow_width * 10

    def test_reproducibility(self, table: Table) -> None:
        a = UniformWorkload(table, seed=6).generate(10)
        b = UniformWorkload(table, seed=6).generate(10)
        assert a == b

    def test_invalid_parameters(self, table: Table) -> None:
        with pytest.raises(InvalidParameterError):
            UniformWorkload(table, volume_fraction=0.0)
        with pytest.raises(InvalidParameterError):
            UniformWorkload(table, query_dimensions=5)
        with pytest.raises(InvalidParameterError):
            UniformWorkload(table, attributes=["missing"])

    def test_iterator_protocol(self, table: Table) -> None:
        generator = UniformWorkload(table, seed=7)
        queries = list(itertools.islice(iter(generator), 5))
        assert len(queries) == 5


class TestUniformWorkload:
    def test_centers_cover_domain(self, table: Table) -> None:
        queries = UniformWorkload(table, volume_fraction=0.01, seed=8).generate(300)
        centers = np.array([(q["a"].low + q["a"].high) / 2 for q in queries])
        assert centers.min() < 0.2
        assert centers.max() > 0.8


class TestDataCenteredWorkload:
    def test_queries_mostly_nonempty_on_clustered_data(self) -> None:
        table = gaussian_mixture_table(10_000, dimensions=2, components=3, separation=6.0, seed=42)
        data_centred = DataCenteredWorkload(table, volume_fraction=0.05, seed=9).generate(100)
        uniform = UniformWorkload(table, volume_fraction=0.05, seed=9).generate(100)
        hits_centred = np.mean([table.true_count(q) > 0 for q in data_centred])
        hits_uniform = np.mean([table.true_count(q) > 0 for q in uniform])
        assert hits_centred >= hits_uniform

    def test_invalid_jitter_raises(self, table: Table) -> None:
        with pytest.raises(InvalidParameterError):
            DataCenteredWorkload(table, jitter_fraction=-0.1)


class TestSkewedWorkload:
    def test_centers_concentrate_in_hot_region(self, table: Table) -> None:
        workload = SkewedWorkload(
            table,
            volume_fraction=0.01,
            hot_fraction=0.1,
            hot_probability=1.0,
            hot_position=0.5,
            seed=10,
        )
        queries = workload.generate(200)
        centers = np.array([(q["a"].low + q["a"].high) / 2 for q in queries])
        domain_low, domain_high = table.domain(["a"])["a"]
        width = domain_high - domain_low
        hot_center = domain_low + 0.5 * width
        assert np.all(np.abs(centers - hot_center) <= 0.06 * width + 1e-9)

    def test_invalid_parameters(self, table: Table) -> None:
        with pytest.raises(InvalidParameterError):
            SkewedWorkload(table, hot_fraction=0.0)
        with pytest.raises(InvalidParameterError):
            SkewedWorkload(table, hot_probability=1.5)
        with pytest.raises(InvalidParameterError):
            SkewedWorkload(table, hot_position=-0.2)
