"""The mergeable-synopsis protocol on the estimator ABC.

Exact-merge estimators (histogram family) must reproduce a monolithic fit
bitwise when their shards are built against a common frame; lossless moment
merges (independence) agree to float rounding; sample merges are pinned
statistically; and the row-count-weighted ``combine_estimates`` fallback is
checked against its closed form.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotFittedError,
)
from repro.core.estimator import (
    SelectivityEstimator,
    available_estimators,
    create_estimator,
)
from repro.engine.table import Table
from repro.shard.partition import HashPartitioner, partition_table
from repro.workload.queries import compile_queries

EXACT_MERGE = ["equiwidth", "equidepth", "grid"]
LOSSLESS_MERGE = EXACT_MERGE + ["independence"]
SAMPLE_MERGE = ["sampling", "reservoir_sampling"]

_FAST_KWARGS = {
    "grid": {"cells_per_dim": 8},
    "sampling": {"sample_size": 256},
    "reservoir_sampling": {"sample_size": 256},
}


def _shard_tables(table: Table, shards: int = 4) -> list[Table]:
    return partition_table(table, HashPartitioner(shards), table.column_names)


def _merged_vs_monolithic(name: str, table: Table):
    kwargs = _FAST_KWARGS.get(name, {})
    monolithic = create_estimator(name, **kwargs).fit(table)
    template = create_estimator(name, **kwargs)
    frame = template.shard_frame(table, table.column_names)
    shards = [
        create_estimator(name, **kwargs).fit_shard(sub, table.column_names, frame)
        for sub in _shard_tables(table)
    ]
    merged = create_estimator(name, **kwargs).merge_state(shards)
    return monolithic, merged


class TestMergeClassification:
    def test_declared_merge_classes(self) -> None:
        for name in available_estimators():
            estimator = create_estimator(name)
            if name in LOSSLESS_MERGE:
                assert estimator.supports_merge and estimator.merge_lossless, name
            if name in SAMPLE_MERGE:
                assert estimator.supports_merge, name
                assert not estimator.merge_lossless, name
            if estimator.merge_lossless:
                assert estimator.supports_merge, name

    def test_unsupported_merge_raises(self, mixture_table_2d) -> None:
        shards = [
            create_estimator("kde", sample_size=50).fit(sub)
            for sub in _shard_tables(mixture_table_2d, 2)
        ]
        with pytest.raises(InvalidParameterError, match="state-merge"):
            create_estimator("kde", sample_size=50).merge_state(shards)


@pytest.mark.parametrize("name", EXACT_MERGE)
class TestExactMerge:
    def test_merged_equals_monolithic_bitwise(
        self, name: str, mixture_table_2d, workload_2d
    ) -> None:
        monolithic, merged = _merged_vs_monolithic(name, mixture_table_2d)
        plan = compile_queries(workload_2d, monolithic.columns)
        np.testing.assert_array_equal(
            merged.estimate_batch(plan), monolithic.estimate_batch(plan)
        )
        assert merged.row_count == monolithic.row_count
        assert merged.memory_bytes() == monolithic.memory_bytes()

    def test_merge_without_common_frame_rejected(
        self, name: str, mixture_table_2d
    ) -> None:
        # Shards fitted without a shared frame derive their own layouts;
        # merging them silently would corrupt counts.
        kwargs = _FAST_KWARGS.get(name, {})
        shards = [
            create_estimator(name, **kwargs).fit(sub)
            for sub in _shard_tables(mixture_table_2d, 2)
        ]
        with pytest.raises(InvalidParameterError, match="frame"):
            create_estimator(name, **kwargs).merge_state(shards)


class TestLosslessMerge:
    def test_independence_moments_recombine(self, mixture_table_2d, workload_2d) -> None:
        monolithic, merged = _merged_vs_monolithic("independence", mixture_table_2d)
        plan = compile_queries(workload_2d, monolithic.columns)
        np.testing.assert_allclose(
            merged.estimate_batch(plan),
            monolithic.estimate_batch(plan),
            rtol=1e-9,
            atol=1e-12,
        )


@pytest.mark.parametrize("name", SAMPLE_MERGE)
class TestSampleMerge:
    def test_merged_sample_estimates_the_same_distribution(
        self, name: str, mixture_table_2d, workload_2d
    ) -> None:
        monolithic, merged = _merged_vs_monolithic(name, mixture_table_2d)
        plan = compile_queries(workload_2d, monolithic.columns)
        truths = mixture_table_2d.true_selectivities(plan)
        errors = np.abs(merged.estimate_batch(plan) - truths)
        # The merged sample is one more m-row uniform sample: its error stays
        # within a few standard errors of sampling noise.
        m = _FAST_KWARGS[name]["sample_size"]
        noise = np.sqrt(np.maximum(truths * (1 - truths), 0.25 / m) / m)
        assert (errors <= 5 * noise + 1e-9).mean() >= 0.9
        assert errors.mean() <= 3 * noise.mean()

    def test_merged_sample_respects_capacity_and_rows(
        self, name: str, mixture_table_2d
    ) -> None:
        _, merged = _merged_vs_monolithic(name, mixture_table_2d)
        assert merged.row_count == mixture_table_2d.row_count
        assert merged.memory_bytes() > 0


class TestMergeValidation:
    def test_empty_merge_rejected(self) -> None:
        with pytest.raises(InvalidParameterError):
            create_estimator("equiwidth").merge_state([])

    def test_cross_estimator_merge_rejected(self, small_table) -> None:
        shard = create_estimator("equidepth").fit(small_table)
        with pytest.raises(InvalidParameterError):
            create_estimator("equiwidth").merge_state([shard])

    def test_unfitted_shard_rejected(self) -> None:
        with pytest.raises(NotFittedError):
            create_estimator("equiwidth").merge_state([create_estimator("equiwidth")])

    def test_column_mismatch_rejected(self, small_table, mixture_table_2d) -> None:
        a = create_estimator("equiwidth").fit(small_table)
        b = create_estimator("equiwidth").fit(mixture_table_2d)
        with pytest.raises(DimensionMismatchError):
            create_estimator("equiwidth").merge_state([a, b])


class TestCombineEstimates:
    def test_weighted_average_closed_form(self) -> None:
        estimates = np.array([[0.2, 0.4], [0.6, 0.0], [1.0, 1.0]])
        weights = np.array([1.0, 3.0, 0.0])
        np.testing.assert_allclose(
            SelectivityEstimator.combine_estimates(estimates, weights),
            [(0.2 + 3 * 0.6) / 4.0, (0.4 + 0.0) / 4.0],
        )

    def test_all_empty_shards_estimate_zero(self) -> None:
        result = SelectivityEstimator.combine_estimates(
            np.array([[0.5, 0.5]]), np.array([0.0])
        )
        np.testing.assert_array_equal(result, [0.0, 0.0])

    def test_shape_mismatch_rejected(self) -> None:
        with pytest.raises(InvalidParameterError):
            SelectivityEstimator.combine_estimates(
                np.ones((2, 3)), np.array([1.0, 2.0, 3.0])
            )
