"""ShardedEstimator acceptance suite.

The headline guarantee (see :mod:`repro.shard`): for **every** registered
estimator, ``ShardedEstimator(est, shards=k)`` matches the monolithic
estimator within its merge class's documented tolerance on the standard
workload —

* bitwise for the exact state-merge family (``equiwidth``, ``equidepth``,
  ``grid``) and to float rounding for ``independence``;
* for the weighted-combine family, mean relative deviation (selectivities
  floored at 0.05) within :data:`WEIGHTED_TOLERANCE`.

Plus the front-end mechanics: insert routing (batch-invariant), flush,
per-shard refresh, copy-on-write shard swap, parallel-backend equivalence
and catalog integration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import (
    CatalogError,
    DimensionMismatchError,
    InvalidParameterError,
    StreamError,
)
from repro.core.estimator import available_estimators, create_estimator
from repro.engine.catalog import Catalog
from repro.engine.table import Table
from repro.shard.sharded import ShardedEstimator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

ALL_BASES = sorted(n for n in available_estimators() if n != "sharded")

#: Constructor overrides: default synopsis budgets on the standard table.
_BASE_KWARGS: dict[str, dict] = {
    "streaming_ade": {"max_kernels": 128},
}

#: Documented tolerance of the weighted-combine path: mean relative
#: deviation from the monolithic estimator with selectivities floored at
#: 0.05.  The KDE/ADE family stays within 5 %; the self-tuning histogram's
#: initial structure is data-derived per shard and is pinned at 8 %; the
#: samplers additionally carry O(sqrt(p(1-p)/m)) sampling noise.
WEIGHTED_TOLERANCE: dict[str, float] = {
    "adaptive_kde": 0.05,
    "kde": 0.05,
    "feedback_ade": 0.05,
    "streaming_ade": 0.05,
    "wavelet": 0.05,
    "st_histogram": 0.08,
    "sampling": 0.08,
    "reservoir_sampling": 0.08,
    # A convex combination of its experts: its deviation is bounded by the
    # worst member family (the samplers).
    "ensemble": 0.08,
}

EXACT = {"equiwidth", "equidepth", "grid"}
ROUNDING_EXACT = {"independence"}


@pytest.fixture(scope="module")
def standard_table() -> Table:
    from repro.data.generators import gaussian_mixture_table

    return gaussian_mixture_table(
        rows=20_000, dimensions=2, components=3, separation=4.0, seed=3, name="std"
    )


@pytest.fixture(scope="module")
def standard_workload(standard_table):
    return UniformWorkload(standard_table, volume_fraction=0.2, seed=7).generate(100)


@pytest.mark.parametrize("name", ALL_BASES)
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_matches_monolithic_within_documented_tolerance(
    name: str, shards: int, standard_table, standard_workload
) -> None:
    kwargs = _BASE_KWARGS.get(name, {})
    monolithic = create_estimator(name, **kwargs).fit(standard_table)
    sharded = ShardedEstimator(
        {"name": name, **kwargs}, shards=shards, partitioner="hash", parallel="serial"
    ).fit(standard_table)
    assert sharded.row_count == monolithic.row_count
    plan = compile_queries(standard_workload, monolithic.columns)
    mono = monolithic.estimate_batch(plan)
    shard = sharded.estimate_batch(plan)
    if name in EXACT:
        np.testing.assert_array_equal(shard, mono)
    elif name in ROUNDING_EXACT:
        np.testing.assert_allclose(shard, mono, rtol=1e-9, atol=1e-12)
    else:
        deviation = (np.abs(shard - mono) / np.maximum(mono, 0.05)).mean()
        assert deviation <= WEIGHTED_TOLERANCE[name], (
            f"{name} at {shards} shards deviates {deviation:.4f} from the "
            f"monolithic estimator (documented: {WEIGHTED_TOLERANCE[name]})"
        )


class TestFrontEndContract:
    def test_registered_and_config_roundtrips(self) -> None:
        estimator = create_estimator("sharded")
        assert isinstance(estimator, ShardedEstimator)
        clone = create_estimator("sharded", **{
            k: v for k, v in estimator.config().items() if k != "name"
        })
        assert clone.config() == estimator.config()

    def test_base_accepts_instance_name_and_config(self, small_table) -> None:
        for base in ("equiwidth", {"name": "equiwidth", "buckets": 16},
                     create_estimator("equiwidth", buckets=16)):
            estimator = ShardedEstimator(base, shards=2).fit(small_table)
            assert estimator.shard_count == 2
            assert estimator.shard(0).name == "equiwidth"

    def test_nested_sharding_rejected(self) -> None:
        with pytest.raises(InvalidParameterError, match="nested"):
            ShardedEstimator(ShardedEstimator("equiwidth"))

    def test_process_backend_rejected(self) -> None:
        with pytest.raises(InvalidParameterError, match="process"):
            ShardedEstimator("equiwidth", parallel="process")

    def test_merge_combine_requires_mergeable_base(self) -> None:
        with pytest.raises(InvalidParameterError, match="merge"):
            ShardedEstimator("kde", combine="merge")

    def test_shard_row_counts_cover_the_table(self, mixture_table_2d) -> None:
        estimator = ShardedEstimator("equiwidth", shards=4).fit(mixture_table_2d)
        counts = estimator.shard_row_counts()
        assert counts.sum() == mixture_table_2d.row_count
        assert estimator.memory_bytes() == sum(
            s.memory_bytes() for s in estimator.shard_estimators
        )

    def test_combine_modes_agree_for_exact_bases_1d(
        self, small_table, workload_1d
    ) -> None:
        # Over a single attribute the per-shard histogram estimate is linear
        # in the bucket counts, so the row-count-weighted combine equals the
        # merged histogram.  (Over multiple attributes the AVI *product* is
        # nonlinear across columns and the two modes legitimately differ —
        # which is exactly why the exact family defaults to the merge path.)
        merged = ShardedEstimator("equiwidth", shards=4, combine="merge").fit(
            small_table
        )
        weighted = ShardedEstimator("equiwidth", shards=4, combine="weighted").fit(
            small_table
        )
        np.testing.assert_allclose(
            merged.estimate_batch(workload_1d),
            weighted.estimate_batch(workload_1d),
            atol=1e-12,
        )

    def test_parallel_backends_produce_identical_models(
        self, mixture_table_2d, workload_2d
    ) -> None:
        results = {}
        for backend in ("serial", "thread"):
            estimator = ShardedEstimator(
                "equidepth", shards=4, parallel=backend
            ).fit(mixture_table_2d)
            results[backend] = estimator.estimate_batch(workload_2d)
        np.testing.assert_array_equal(results["serial"], results["thread"])


class TestStreamingFrontEnd:
    def test_insert_routes_and_batching_is_invariant(self, workload_2d) -> None:
        from repro.data.generators import gaussian_mixture_table

        table = gaussian_mixture_table(rows=4000, dimensions=2, seed=11)
        stream = np.random.default_rng(12).normal(0.5, 1.5, size=(900, 2))

        bulk = ShardedEstimator(
            {"name": "reservoir_sampling", "sample_size": 64},
            shards=3,
            partitioner="hash",
        ).fit(table)
        bulk.insert(stream)
        row_wise = ShardedEstimator(
            {"name": "reservoir_sampling", "sample_size": 64},
            shards=3,
            partitioner="hash",
        ).fit(table)
        for row in stream:
            row_wise.insert(row.reshape(1, -1))

        assert bulk.row_count == row_wise.row_count == 4900
        np.testing.assert_array_equal(
            bulk.estimate_batch(workload_2d), row_wise.estimate_batch(workload_2d)
        )

    def test_insert_on_non_streaming_base_raises(self, mixture_table_2d) -> None:
        estimator = ShardedEstimator("equiwidth", shards=2).fit(mixture_table_2d)
        with pytest.raises(StreamError):
            estimator.insert(np.zeros((3, 2)))

    def test_empty_insert_is_a_noop(self, mixture_table_2d) -> None:
        estimator = ShardedEstimator(
            {"name": "streaming_ade", "max_kernels": 16}, shards=2
        ).fit(mixture_table_2d)
        before = estimator.row_count
        estimator.insert(np.empty((0, 2)))
        assert estimator.row_count == before

    def test_flush_reaches_every_shard(self, mixture_table_2d, workload_2d) -> None:
        estimator = ShardedEstimator(
            {"name": "streaming_ade", "max_kernels": 16, "chunk_size": 512},
            shards=2,
        ).fit(mixture_table_2d)
        estimator.insert(np.random.default_rng(13).normal(size=(100, 2)))
        estimator.flush()
        for shard in estimator.shard_estimators:
            assert shard._pending_count == 0

    def test_width_mismatch_rejected(self, mixture_table_2d) -> None:
        estimator = ShardedEstimator(
            {"name": "streaming_ade", "max_kernels": 16}, shards=2
        ).fit(mixture_table_2d)
        with pytest.raises(DimensionMismatchError):
            estimator.insert(np.zeros((3, 5)))

    def test_non_finite_batch_rejected_before_routing(
        self, mixture_table_2d, workload_2d
    ) -> None:
        """A NaN row used to zero its shard's synopsis and halve estimates."""
        estimator = ShardedEstimator(
            {"name": "streaming_ade", "max_kernels": 16}, shards=2
        ).fit(mixture_table_2d)
        counts = estimator.shard_row_counts()
        before = estimator.estimate_batch(workload_2d)
        batch = np.random.default_rng(14).normal(size=(50, 2))
        batch[3, 1] = np.nan
        with pytest.raises(DimensionMismatchError):
            estimator.insert(batch)
        np.testing.assert_array_equal(estimator.shard_row_counts(), counts)
        np.testing.assert_array_equal(estimator.estimate_batch(workload_2d), before)


class TestPerShardLifecycle:
    def test_refit_shard_only_rebuilds_one_partition(self, workload_2d) -> None:
        from repro.data.generators import gaussian_mixture_table

        table = gaussian_mixture_table(rows=6000, dimensions=2, seed=14, name="t")
        estimator = ShardedEstimator("equidepth", shards=3, partitioner="hash").fit(
            table
        )
        untouched = [estimator.shard(i) for i in (0, 2)]
        table.append_matrix(np.random.default_rng(15).normal(size=(600, 2)))
        fresh = estimator.refit_shard(1, table)
        assert estimator.shard(1) is fresh
        assert estimator.shard(0) is untouched[0]
        assert estimator.shard(2) is untouched[1]
        assert estimator.row_count == sum(estimator.shard_row_counts())
        # Frame pinned by the original fit: the refreshed shard stays
        # merge-compatible with the untouched shards.
        assert estimator.estimate_batch(workload_2d).shape == (len(workload_2d),)

    def test_round_robin_refit_uses_static_positions(self, workload_2d) -> None:
        """Regression: refitting a shard of a round-robin-partitioned model
        must re-derive the positional assignment from table position 0, not
        consume the live stream counter (which would misroute every row and
        silently shift all subsequent insert routing)."""
        from repro.data.generators import gaussian_mixture_table

        table = gaussian_mixture_table(rows=1000, dimensions=2, seed=18, name="rr")
        estimator = ShardedEstimator(
            "equiwidth", shards=4, partitioner="round_robin"
        ).fit(table)
        counts_before = estimator.shard_row_counts().copy()
        before = estimator.estimate_batch(workload_2d).copy()
        position = estimator.partitioner.position
        # Refit on the unchanged table: a pure re-derivation.
        estimator.refit_shard(2, table)
        np.testing.assert_array_equal(estimator.shard_row_counts(), counts_before)
        np.testing.assert_array_equal(estimator.estimate_batch(workload_2d), before)
        assert estimator.partitioner.position == position  # counter untouched
        assert estimator.row_count == table.row_count

    def test_with_shard_is_copy_on_write(self, mixture_table_2d, workload_2d) -> None:
        original = ShardedEstimator("equiwidth", shards=3).fit(mixture_table_2d)
        before = original.estimate_batch(workload_2d).copy()
        replacement = original.checkout_shard(1)
        clone = original.with_shard(1, replacement)
        assert clone is not original
        assert clone.shard(0) is original.shard(0)  # shared, not copied
        assert clone.shard(1) is replacement
        np.testing.assert_array_equal(original.estimate_batch(workload_2d), before)
        np.testing.assert_array_equal(clone.estimate_batch(workload_2d), before)

    def test_with_shard_validates_the_replacement(self, mixture_table_2d) -> None:
        estimator = ShardedEstimator("equiwidth", shards=2).fit(mixture_table_2d)
        with pytest.raises(InvalidParameterError):
            estimator.with_shard(0, create_estimator("kde").fit(mixture_table_2d))
        with pytest.raises(InvalidParameterError):
            estimator.with_shard(7, estimator.checkout_shard(0))


class TestCatalogIntegration:
    def test_attach_sharded_and_shard_refresh(self, workload_2d) -> None:
        from repro.data.generators import gaussian_mixture_table

        table = gaussian_mixture_table(rows=5000, dimensions=2, seed=16, name="tbl")
        catalog = Catalog()
        catalog.add_table(table)
        estimator = catalog.attach_sharded(
            "tbl", "equidepth", shards=3, partitioner="range"
        )
        assert catalog.estimator("tbl") is estimator
        estimates = catalog.estimate_batch("tbl", workload_2d)
        assert estimates.shape == (len(workload_2d),)
        table.append_matrix(np.random.default_rng(17).normal(size=(400, 2)))
        catalog.refresh("tbl", shard=0)
        assert catalog.estimator("tbl").row_count == sum(
            catalog.estimator("tbl").shard_row_counts()
        )

    def test_shard_refresh_requires_sharded_synopsis(self, mixture_table_2d) -> None:
        catalog = Catalog()
        catalog.add_table(mixture_table_2d)
        catalog.attach_estimator(mixture_table_2d.name, create_estimator("equiwidth"))
        with pytest.raises(CatalogError, match="not sharded"):
            catalog.refresh(mixture_table_2d.name, shard=0)

    def test_shard_refresh_without_synopsis_raises(self, mixture_table_2d) -> None:
        catalog = Catalog()
        catalog.add_table(mixture_table_2d)
        with pytest.raises(CatalogError):
            catalog.refresh(mixture_table_2d.name, shard=0)
