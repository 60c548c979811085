"""Unit tests for the query model (Interval, RangeQuery, QueryRegion)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DimensionMismatchError, InvalidQueryError
from repro.workload.queries import (
    CompiledQueries,
    Interval,
    QueryRegion,
    RangeQuery,
    compile_queries,
)


class TestInterval:
    def test_basic_properties(self) -> None:
        interval = Interval(1.0, 3.0)
        assert interval.width == 2.0
        assert not interval.is_point
        assert interval.is_bounded

    def test_point_interval(self) -> None:
        interval = Interval(2.0, 2.0)
        assert interval.is_point
        assert interval.width == 0.0
        assert interval.contains(2.0)

    def test_one_sided_interval(self) -> None:
        interval = Interval(-math.inf, 5.0)
        assert not interval.is_bounded
        assert interval.contains(-1e18)
        assert not interval.contains(5.1)

    def test_invalid_order_raises(self) -> None:
        with pytest.raises(InvalidQueryError):
            Interval(3.0, 1.0)

    def test_nan_raises(self) -> None:
        with pytest.raises(InvalidQueryError):
            Interval(float("nan"), 1.0)

    def test_contains_boundaries_inclusive(self) -> None:
        interval = Interval(0.0, 1.0)
        assert interval.contains(0.0)
        assert interval.contains(1.0)

    def test_intersection(self) -> None:
        assert Interval(0, 2).intersect(Interval(1, 3)) == Interval(1, 2)
        assert Interval(0, 1).intersect(Interval(2, 3)) is None
        assert Interval(0, 1).intersect(Interval(1, 2)) == Interval(1, 1)

    def test_clip(self) -> None:
        assert Interval(-5, 5).clip(0, 1) == Interval(0, 1)
        assert Interval(0.2, 0.4).clip(0, 1) == Interval(0.2, 0.4)
        clipped = Interval(2, 3).clip(0, 1)
        assert clipped.width == 0.0

    def test_overlap_fraction(self) -> None:
        interval = Interval(0.0, 0.5)
        assert interval.overlap_fraction(0.0, 1.0) == pytest.approx(0.5)
        assert interval.overlap_fraction(0.6, 1.0) == 0.0
        assert interval.overlap_fraction(0.25, 0.75) == pytest.approx(0.5)

    def test_overlap_fraction_degenerate_bucket(self) -> None:
        interval = Interval(0.0, 1.0)
        assert interval.overlap_fraction(0.5, 0.5) == 1.0
        assert interval.overlap_fraction(2.0, 2.0) == 0.0

    def test_ordering(self) -> None:
        assert Interval(0, 1) < Interval(1, 2)


class TestRangeQuery:
    def test_construction_from_tuples(self) -> None:
        query = RangeQuery({"a": (0, 1), "b": Interval(2, 3)})
        assert query.attributes == ("a", "b")
        assert query["a"] == Interval(0, 1)
        assert query["b"].low == 2.0

    def test_empty_constraints_raise(self) -> None:
        with pytest.raises(InvalidQueryError):
            RangeQuery({})

    def test_equality_independent_of_order(self) -> None:
        q1 = RangeQuery({"a": (0, 1), "b": (2, 3)})
        q2 = RangeQuery({"b": (2, 3), "a": (0, 1)})
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_mapping_protocol(self) -> None:
        query = RangeQuery({"x": (0, 1)})
        assert len(query) == 1
        assert "x" in query
        assert list(query) == ["x"]
        assert query.dimensionality == 1

    def test_bounds_alignment(self) -> None:
        query = RangeQuery({"b": (1, 2)})
        lows, highs = query.bounds(["a", "b", "c"])
        assert lows[0] == -np.inf and highs[0] == np.inf
        assert lows[1] == 1.0 and highs[1] == 2.0
        assert lows[2] == -np.inf and highs[2] == np.inf

    def test_restrict(self) -> None:
        query = RangeQuery({"a": (0, 1), "b": (2, 3)})
        restricted = query.restrict(["a"])
        assert restricted is not None
        assert restricted.attributes == ("a",)
        assert query.restrict(["z"]) is None

    def test_volume(self) -> None:
        query = RangeQuery({"a": (0.0, 0.5)})
        domain = {"a": (0.0, 1.0), "b": (0.0, 10.0)}
        assert query.volume(domain) == pytest.approx(0.5)

    def test_volume_clipped_to_domain(self) -> None:
        query = RangeQuery({"a": (-10.0, 0.5)})
        assert query.volume({"a": (0.0, 1.0)}) == pytest.approx(0.5)

    def test_intersect(self) -> None:
        q1 = RangeQuery({"a": (0, 2)})
        q2 = RangeQuery({"a": (1, 3), "b": (0, 1)})
        joint = q1.intersect(q2)
        assert joint is not None
        assert joint["a"] == Interval(1, 2)
        assert joint["b"] == Interval(0, 1)

    def test_intersect_disjoint_returns_none(self) -> None:
        assert RangeQuery({"a": (0, 1)}).intersect(RangeQuery({"a": (2, 3)})) is None

    def test_contains_point(self) -> None:
        query = RangeQuery({"a": (0, 1), "b": (0, 1)})
        assert query.contains_point({"a": 0.5, "b": 0.5})
        assert not query.contains_point({"a": 0.5, "b": 2.0})
        assert not query.contains_point({"a": 0.5})

    def test_repr_contains_attributes(self) -> None:
        assert "a" in repr(RangeQuery({"a": (0, 1)}))

    def test_invalid_interval_raises(self) -> None:
        with pytest.raises(InvalidQueryError):
            RangeQuery({"a": (5, 1)})


class TestQueryRegion:
    def test_valid_region(self) -> None:
        region = QueryRegion(RangeQuery({"a": (0, 1)}), true_fraction=0.25)
        assert region.true_fraction == 0.25
        assert region.weight == 1.0

    def test_invalid_fraction_raises(self) -> None:
        with pytest.raises(InvalidQueryError):
            QueryRegion(RangeQuery({"a": (0, 1)}), true_fraction=1.5)

    def test_invalid_weight_raises(self) -> None:
        with pytest.raises(InvalidQueryError):
            QueryRegion(RangeQuery({"a": (0, 1)}), true_fraction=0.5, weight=0.0)


class TestCompiledQueries:
    def test_compile_aligns_bounds_with_columns(self) -> None:
        queries = [
            RangeQuery({"a": (0, 1)}),
            RangeQuery({"b": (2, 3), "a": (-1, 4)}),
        ]
        plan = compile_queries(queries, ["a", "b"])
        assert plan.columns == ("a", "b")
        assert len(plan) == 2
        assert plan.dimensionality == 2
        np.testing.assert_array_equal(plan.lows, [[0.0, -np.inf], [-1.0, 2.0]])
        np.testing.assert_array_equal(plan.highs, [[1.0, np.inf], [4.0, 3.0]])

    def test_compile_empty_workload(self) -> None:
        plan = compile_queries([], ["a"])
        assert len(plan) == 0
        assert plan.lows.shape == (0, 1)

    def test_compile_unknown_attribute_raises(self) -> None:
        with pytest.raises(DimensionMismatchError):
            compile_queries([RangeQuery({"c": (0, 1)})], ["a", "b"])

    def test_compile_without_columns_raises(self) -> None:
        with pytest.raises(InvalidQueryError):
            compile_queries([RangeQuery({"a": (0, 1)})], [])

    def test_compile_passthrough_for_matching_plan(self) -> None:
        plan = compile_queries([RangeQuery({"a": (0, 1)})], ["a"])
        assert compile_queries(plan, ["a"]) is plan

    def test_compile_restricts_superset_plan(self) -> None:
        plan = compile_queries([RangeQuery({"a": (0, 1)})], ["a", "b"])
        restricted = compile_queries(plan, ["a"])
        assert restricted.columns == ("a",)
        np.testing.assert_array_equal(restricted.lows, [[0.0]])

    def test_restrict_refuses_to_drop_constrained_column(self) -> None:
        plan = compile_queries([RangeQuery({"a": (0, 1), "b": (2, 3)})], ["a", "b"])
        with pytest.raises(DimensionMismatchError):
            plan.restrict(["a"])

    def test_immutable(self) -> None:
        plan = compile_queries([RangeQuery({"a": (0, 1)})], ["a"])
        with pytest.raises(AttributeError):
            plan.columns = ("b",)
        with pytest.raises(ValueError):
            plan.lows[0, 0] = 5.0

    def test_validation(self) -> None:
        with pytest.raises(InvalidQueryError):
            CompiledQueries(("a",), np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(InvalidQueryError):
            CompiledQueries(("a",), np.ones((1, 1)), np.zeros((1, 1)))
        with pytest.raises(InvalidQueryError):
            CompiledQueries(("a",), np.full((1, 1), np.nan), np.ones((1, 1)))

    def test_to_queries_round_trip(self) -> None:
        queries = [RangeQuery({"a": (0, 1), "b": (-math.inf, 3)})]
        plan = compile_queries(queries, ["a", "b"])
        rebuilt = plan.to_queries()[0]
        assert rebuilt["a"] == Interval(0, 1)
        assert rebuilt["b"] == Interval(-math.inf, 3.0)


_NAMES = ("a", "b", "c", "d")
_bound = st.floats(allow_nan=False)  # includes ±inf and -0.0


@st.composite
def _columns_and_queries(draw):
    """A random column order/subset and RangeQuery list constraining subsets of it.

    Some draws repeat a column name: every position of it gets its bounds.
    """
    order = draw(st.permutations(_NAMES))
    columns = tuple(order[: draw(st.integers(1, len(order)))])
    if draw(st.booleans()):
        columns += tuple(draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2)))
    queries = []
    for _ in range(draw(st.integers(0, 6))):
        names = draw(st.lists(st.sampled_from(columns), min_size=1, unique=True))
        queries.append(
            RangeQuery({name: tuple(sorted(draw(st.tuples(_bound, _bound)))) for name in names})
        )
    return columns, queries


class TestCompileProperties:
    @given(_columns_and_queries())
    @settings(max_examples=200, deadline=None)
    def test_compile_equals_stacked_bounds_bitwise(self, case) -> None:
        columns, queries = case
        plan = compile_queries(queries, columns)
        expected = np.empty((2, len(queries), len(columns)))
        for i, query in enumerate(queries):
            expected[0, i], expected[1, i] = query.bounds(columns)
        assert plan.columns == columns
        assert plan.lows.shape == plan.highs.shape == (len(queries), len(columns))
        assert plan.lows.tobytes() == expected[0].tobytes()
        assert plan.highs.tobytes() == expected[1].tobytes()

    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(
                *(st.lists(st.sampled_from([-np.inf, -1.0, 0.0, 2.0, np.inf, np.nan]),
                           min_size=2 * n, max_size=2 * n) for _ in range(2))
            ).map(lambda pair: [np.reshape(values, (n, 2)) for values in pair])
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_validation_errors_keep_their_type_and_message(self, bounds) -> None:
        lows, highs = bounds
        if np.isnan(lows).any() or np.isnan(highs).any():
            expected = "compiled bounds must not contain NaN"
        elif (lows > highs).any():
            expected = "compiled lower bounds must not exceed upper bounds"
        else:
            expected = None
        if expected is None:
            assert len(CompiledQueries(("a", "b"), lows, highs)) == lows.shape[0]
        else:
            with pytest.raises(InvalidQueryError) as raised:
                CompiledQueries(("a", "b"), lows, highs)
            assert str(raised.value) == expected

    def test_unknown_attribute_message_names_the_query_and_columns(self) -> None:
        queries = [RangeQuery({"a": (0, 1)}), RangeQuery({"z": (1, 2), "a": (0, 1), "c": (0, 1)})]
        with pytest.raises(DimensionMismatchError) as raised:
            compile_queries(queries, ["b", "a"])
        assert str(raised.value) == (
            "query 1 constrains ['c', 'z'] which are not covered by the plan columns ['b', 'a']"
        )
