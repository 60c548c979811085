"""Typed predicate nodes, schema lowering, and encode→lower→estimate round trips.

The hypothesis suites check the central invariant of the typed surface: for
any dictionary-encoded table, lowering a typed workload onto the numeric plan
and counting rows through the plan must agree *bitwise* with brute-force row
filtering (``Table.selection_mask`` decodes and compares strings directly, so
the two paths share no code).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    DimensionMismatchError,
    InvalidQueryError,
)
from repro import create_estimator
from repro.data.generators import mixed_type_table
from repro.engine.catalog import Catalog
from repro.engine.table import Table, TableSchema
from repro.workload.generators import TypedWorkload
from repro.workload.queries import (
    Interval,
    LoweredQueries,
    RangeQuery,
    SetMembership,
    StringPrefix,
    TypedQuery,
    compile_queries,
)

# -- strategies ---------------------------------------------------------------

words = st.text(alphabet="abcde", min_size=1, max_size=4)
dictionaries = st.lists(words, min_size=1, max_size=12, unique=True).map(sorted)


@st.composite
def encoded_tables(draw: st.DrawFn) -> Table:
    """A small table with one numeric, one categorical and one string column."""
    cat_dict = draw(dictionaries)
    str_dict = draw(dictionaries)
    rows = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    return Table(
        "t",
        {
            "x": rng.uniform(0.0, 10.0, size=rows),
            "cat": rng.choice(cat_dict, size=rows),
            "s": rng.choice(str_dict, size=rows),
        },
        schema=TableSchema({"cat": "categorical", "s": "string"}),
    )


@st.composite
def typed_queries(draw: st.DrawFn, table: Table) -> TypedQuery:
    constraints: dict[str, object] = {}
    if draw(st.booleans()):
        low = draw(st.floats(min_value=-1.0, max_value=11.0))
        high = low + draw(st.floats(min_value=0.0, max_value=12.0))
        constraints["x"] = Interval(low, high)
    if draw(st.booleans()):
        # Mix dictionary members with absent values to exercise empty runs.
        pool = list(table.schema.dictionary("cat")) + ["zz", "qq"]
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        constraints["cat"] = SetMembership(values)
    if draw(st.booleans()):
        constraints["s"] = StringPrefix(draw(st.text(alphabet="abcde", max_size=3)))
    if not constraints:
        constraints["x"] = Interval(0.0, 10.0)
    return TypedQuery(constraints)


# -- predicate nodes ----------------------------------------------------------

class TestPredicateNodes:
    def test_set_membership_normalises(self) -> None:
        assert SetMembership(["b", "a", "b"]) == SetMembership(("a", "b"))
        assert SetMembership.equals("a") == SetMembership(["a"])
        assert hash(SetMembership([1.0, 2.0])) == hash(SetMembership([2.0, 1.0]))

    def test_set_membership_rejects_bare_string_and_empty(self) -> None:
        with pytest.raises(InvalidQueryError):
            SetMembership("abc")
        with pytest.raises(InvalidQueryError):
            SetMembership([])

    def test_string_prefix_rejects_non_string(self) -> None:
        with pytest.raises(InvalidQueryError):
            StringPrefix(3)

    def test_predicates_are_immutable(self) -> None:
        pred = StringPrefix("a")
        with pytest.raises(AttributeError):
            pred.prefix = "b"
        member = SetMembership(["a"])
        with pytest.raises(AttributeError):
            member.values = frozenset()

    def test_typed_query_conversions(self) -> None:
        query = TypedQuery({"x": (1.0, 2.0), "c": ["a", "b"], "s": StringPrefix("p")})
        assert query["x"] == Interval(1.0, 2.0)
        assert query["c"] == SetMembership(["a", "b"])
        assert query.attributes == ("c", "s", "x")
        assert query.dimensionality == 3
        assert query.restrict(["x"]).attributes == ("x",)
        # One-shot iterables are read once, not once per constraint.
        assert query.restrict(iter(["c", "s"])).attributes == ("c", "s")
        assert query.restrict(name for name in ("s", "x")).attributes == ("s", "x")

    def test_typed_query_rejects_unknown_predicate(self) -> None:
        with pytest.raises(InvalidQueryError):
            TypedQuery({"x": "abc"})


# -- lowering -----------------------------------------------------------------

class TestLowering:
    @pytest.fixture()
    def schema(self) -> TableSchema:
        return TableSchema(
            {"cat": "categorical", "s": "string"},
            {"cat": ["a", "b", "c", "e"], "s": ["auto-1", "auto-2", "bio-1"]},
        )

    def test_in_set_lowered_to_merged_runs(self, schema: TableSchema) -> None:
        lowered = compile_queries(
            [TypedQuery({"cat": SetMembership(["a", "b", "e"])})],
            ["x", "cat"],
            schema=schema,
        )
        assert isinstance(lowered, LoweredQueries)
        assert lowered.box_count == 2  # codes {0,1} merge, {3} stands alone
        np.testing.assert_array_equal(lowered.plan.lows[:, 1], [0.0, 3.0])
        np.testing.assert_array_equal(lowered.plan.highs[:, 1], [1.0, 3.0])
        assert np.all(np.isinf(lowered.plan.lows[:, 0]))

    def test_prefix_lowered_to_single_box(self, schema: TableSchema) -> None:
        lowered = compile_queries(
            [TypedQuery({"s": StringPrefix("auto")})], ["s"], schema=schema
        )
        assert lowered.box_count == 1
        np.testing.assert_array_equal(lowered.plan.lows, [[0.0]])
        np.testing.assert_array_equal(lowered.plan.highs, [[1.0]])

    def test_absent_values_yield_zero_boxes(self, schema: TableSchema) -> None:
        lowered = compile_queries(
            [
                TypedQuery({"cat": SetMembership(["zz"])}),
                TypedQuery({"cat": SetMembership(["c"])}),
            ],
            ["cat"],
            schema=schema,
        )
        assert lowered.box_count == 1
        np.testing.assert_array_equal(lowered.group, [1])
        np.testing.assert_array_equal(lowered.reduce(np.ones(1)), [0.0, 1.0])

    def test_cross_product_of_runs(self, schema: TableSchema) -> None:
        # cat {a, c} -> 2 runs; s prefixes of both families -> handled per query
        lowered = compile_queries(
            [
                TypedQuery(
                    {"cat": SetMembership(["a", "c"]), "s": StringPrefix("auto")}
                )
            ],
            ["cat", "s"],
            schema=schema,
        )
        assert lowered.box_count == 2  # 2 cat runs x 1 s run
        np.testing.assert_array_equal(lowered.group, [0, 0])

    def test_error_names_query_and_column(self, schema: TableSchema) -> None:
        with pytest.raises(InvalidQueryError, match=r"query 1, column 'cat'"):
            compile_queries(
                [
                    TypedQuery({"cat": SetMembership(["a"])}),
                    TypedQuery({"cat": StringPrefix("a")}),
                ],
                ["cat"],
                schema=schema,
            )

    def test_unknown_column_names_query_index(self, schema: TableSchema) -> None:
        with pytest.raises(DimensionMismatchError, match=r"query 0"):
            compile_queries(
                [TypedQuery({"nope": SetMembership(["a"])})], ["cat"], schema=schema
            )

    def test_numeric_error_names_query_index(self) -> None:
        with pytest.raises(DimensionMismatchError, match=r"query 1"):
            compile_queries(
                [RangeQuery({"x": (0.0, 1.0)}), RangeQuery({"y": (0.0, 1.0)})],
                ["x"],
            )

    def test_typed_without_schema_rejected(self) -> None:
        with pytest.raises(InvalidQueryError, match="schema"):
            compile_queries([TypedQuery({"x": SetMembership([1.0])})], ["x"])

    def test_lowered_queries_not_compilable(self, schema: TableSchema) -> None:
        lowered = compile_queries(
            [TypedQuery({"cat": SetMembership(["a"])})], ["cat"], schema=schema
        )
        with pytest.raises(InvalidQueryError, match="LoweredQueries"):
            compile_queries(lowered, ["cat"])

    def test_box_cap_enforced(self) -> None:
        # 70 isolated numeric points in two columns -> 4900 boxes > 4096.
        points = SetMembership([float(2 * i) for i in range(70)])
        with pytest.raises(InvalidQueryError, match=r"query 0"):
            compile_queries(
                [TypedQuery({"x": points, "y": points})],
                ["x", "y"],
                schema=TableSchema(),
            )

    @pytest.mark.parametrize(
        ("columns", "queries"),
        [
            pytest.param(["x", "cat"], [RangeQuery({"x": (0.0, 1.0)})], id="range_only"),
            pytest.param(
                ["x", "x"],
                [RangeQuery({"x": (1.0, 2.0)}), RangeQuery({"x": (-1.0, 0.5)})],
                id="repeated_column",
            ),
            pytest.param(
                ["x", "x"],
                [TypedQuery({"x": SetMembership([1.0, 3.0])}), RangeQuery({"x": (0.0, 1.0)})],
                id="repeated_column_typed",
            ),
            pytest.param(
                ["x", "cat"],
                [
                    TypedQuery({"cat": SetMembership(["a", "c"])}),
                    RangeQuery({"x": (0.0, 1.0)}),
                    TypedQuery({"cat": SetMembership(["e"]), "x": Interval(2.0, 3.0)}),
                ],
                id="between_typed",
            ),
        ],
    )
    def test_plain_range_queries_with_schema_still_compile(
        self, schema: TableSchema, columns: list[str], queries: list
    ) -> None:
        # Each RangeQuery lowers to one box under its own index, bitwise the
        # row it compiles to without a schema: a RangeQuery-only workload
        # lowers to the plain plan with group == arange(n).
        lowered = compile_queries(queries, columns, schema=schema)
        ranged = [i for i, query in enumerate(queries) if isinstance(query, RangeQuery)]
        plain = compile_queries([queries[i] for i in ranged], columns)
        rows = np.flatnonzero(np.isin(lowered.group, ranged))
        np.testing.assert_array_equal(lowered.group[rows], ranged)
        assert lowered.plan.lows[rows].tobytes() == plain.lows.tobytes()
        assert lowered.plan.highs[rows].tobytes() == plain.highs.tobytes()
        # Every position of a repeated column name holds that name's bounds,
        # in typed boxes too.
        first = [columns.index(name) for name in columns]
        assert lowered.plan.lows.tobytes() == lowered.plan.lows[:, first].tobytes()
        assert lowered.plan.highs.tobytes() == lowered.plan.highs[:, first].tobytes()


# -- round trips --------------------------------------------------------------

class TestRoundTrip:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lowered_counts_match_brute_force(self, data: st.DataObject) -> None:
        table = data.draw(encoded_tables())
        queries = [data.draw(typed_queries(table)) for _ in range(3)]
        lowered = compile_queries(
            queries, ["x", "cat", "s"], schema=table.schema
        )
        via_plan = table.true_counts(lowered)
        brute = np.asarray(
            [int(np.count_nonzero(table.selection_mask(q))) for q in queries]
        )
        np.testing.assert_array_equal(via_plan, brute)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_true_selectivities_accept_typed_queries(
        self, data: st.DataObject
    ) -> None:
        table = data.draw(encoded_tables())
        queries = [data.draw(typed_queries(table)) for _ in range(2)]
        sels = table.true_selectivities(queries)
        expected = np.asarray([table.true_selectivity(q) for q in queries])
        np.testing.assert_array_equal(sels, expected)

    @pytest.mark.parametrize("estimator_name", ["equidepth", "equiwidth"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_histogram_lowering_equals_code_intervals(
        self, estimator_name: str, data: st.DataObject
    ) -> None:
        """Typed estimate == estimate of the equivalent code-interval boxes,
        bitwise, for histogram-family estimators."""
        table = data.draw(encoded_tables())
        catalog = Catalog()
        catalog.add_table(table)
        catalog.attach_estimator(
            "t", create_estimator(estimator_name, buckets=8), columns=["x", "cat", "s"]
        )
        query = data.draw(typed_queries(table))
        typed = catalog.estimate_selectivity("t", query)

        lowered = compile_queries([query], ["x", "cat", "s"], schema=table.schema)
        if lowered.box_count == 0:
            assert typed == 0.0
            return
        # Re-express each box as a plain numeric RangeQuery over codes.
        manual = [
            RangeQuery(
                {
                    col: Interval(float(lo), float(hi))
                    for col, lo, hi in zip(
                        ["x", "cat", "s"],
                        lowered.plan.lows[i],
                        lowered.plan.highs[i],
                    )
                    if np.isfinite(lo) or np.isfinite(hi)
                }
            )
            for i in range(lowered.box_count)
        ]
        per_box = catalog.estimate_batch("t", manual)
        assert typed == pytest.approx(min(float(per_box.sum()), 1.0), abs=0.0)

    def test_estimates_within_tolerance_on_mixed_table(self) -> None:
        """Typed predicates estimate within the repo's existing histogram
        tolerance against exact selectivities."""
        table = mixed_type_table(4000, seed=7)
        catalog = Catalog()
        catalog.add_table(table)
        columns = ["amount", "score", "region", "product"]
        catalog.attach_estimator(
            "mixed_type", create_estimator("equidepth", buckets=24), columns=columns
        )
        queries = TypedWorkload(
            table, attributes=columns, query_dimensions=2, seed=3
        ).generate(60)
        estimates = catalog.estimate_batch("mixed_type", queries)
        exact = table.true_selectivities(queries)
        errors = np.abs(estimates - exact)
        assert float(np.mean(errors)) < 0.05
        assert float(np.max(errors)) < 0.35

    def test_typed_workload_respects_schema(self) -> None:
        table = mixed_type_table(500, seed=1)
        queries = TypedWorkload(table, seed=2).generate(20)
        for query in queries:
            assert isinstance(query, TypedQuery)
            for attribute, predicate in query.items():
                if table.schema.is_encoded(attribute):
                    assert isinstance(predicate, (SetMembership, StringPrefix))
                else:
                    assert isinstance(predicate, Interval)
