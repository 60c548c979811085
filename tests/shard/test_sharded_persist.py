"""Persistence and serving of sharded models.

The single-file snapshot contract for ``"sharded"`` is exercised by the
registry-wide suites in ``tests/persist``; this module pins the sharded
specifics: ModelStore round-trips, catalog save/restore, the checksummed
routing state, and serving through :class:`EstimatorServer` with per-shard
generation swaps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, SnapshotCorruptError
from repro.core.estimator import create_estimator
from repro.engine.catalog import Catalog
from repro.persist.snapshot import load_estimator, save_estimator
from repro.persist.store import ModelStore
from repro.serve import EstimatorServer
from repro.shard.sharded import ShardedEstimator


@pytest.fixture()
def sharded(mixture_table_2d) -> ShardedEstimator:
    return ShardedEstimator(
        {"name": "equidepth", "buckets": 32}, shards=3, partitioner="range"
    ).fit(mixture_table_2d)


class TestModelStoreIntegration:
    def test_store_publish_load_roundtrip(self, sharded, workload_2d, tmp_path) -> None:
        store = ModelStore(tmp_path / "store")
        before = sharded.estimate_batch(workload_2d)
        version = store.publish("stats", sharded)
        loaded = store.load("stats", version.version)
        assert isinstance(loaded, ShardedEstimator)
        np.testing.assert_array_equal(loaded.estimate_batch(workload_2d), before)
        header = store.describe("stats")
        assert header["estimator"] == "sharded"
        assert header["config"]["shards"] == 3

    def test_foreign_directory_coexists_with_store(
        self, sharded, workload_2d, tmp_path
    ) -> None:
        """A foreign dir of snapshot files in the store tree must not break scans."""
        store = ModelStore(tmp_path / "store")
        store.publish("stats", sharded)
        for foreign in (store.root / "stats" / "export", store.root / "loose-export"):
            save_estimator(sharded.shard(0), foreign / "shard-0000.npz")
        assert store.versions("stats") == [1]
        assert store.latest_version("stats") == 1
        assert store.model_names() == ["stats"]
        store.publish("stats", sharded)
        assert store.versions("stats") == [1, 2]
        loaded = store.load("stats")
        np.testing.assert_array_equal(
            loaded.estimate_batch(workload_2d), sharded.estimate_batch(workload_2d)
        )

    def test_catalog_save_restore_sharded(
        self, mixture_table_2d, workload_2d, tmp_path
    ) -> None:
        catalog = Catalog()
        catalog.add_table(mixture_table_2d)
        catalog.attach_sharded(
            mixture_table_2d.name, "equiwidth", shards=2, partitioner="hash"
        )
        before = catalog.estimate_batch(mixture_table_2d.name, workload_2d)
        store = ModelStore(tmp_path / "store")
        catalog.save(store)

        restored = Catalog()
        restored.add_table(mixture_table_2d)
        assert restored.restore(store) == [mixture_table_2d.name]
        assert isinstance(restored.estimator(mixture_table_2d.name), ShardedEstimator)
        np.testing.assert_array_equal(
            restored.estimate_batch(mixture_table_2d.name, workload_2d), before
        )


class TestSnapshotIntegrity:
    def test_routing_state_is_checksummed(self, sharded, tmp_path) -> None:
        """The envelope checksum covers the partitioner's routing arrays:
        a snapshot whose shard boundaries were altered is refused."""
        path = tmp_path / "sharded.npz"
        save_estimator(sharded, path)
        with np.load(path, allow_pickle=False) as data:
            payload = {key: data[key] for key in data.files}
        payload["a::part::boundaries"] = payload["a::part::boundaries"] + 0.5
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            load_estimator(path)


class TestShardedServing:
    def test_serves_and_swaps_per_shard(self, sharded, workload_2d) -> None:
        server = EstimatorServer(sharded, cache_size=8)
        first = server.estimate_batch(workload_2d)
        np.testing.assert_array_equal(server.estimate_batch(workload_2d), first)
        assert server.cache_info().hits == 1

        generation = server.generation
        shard_copy = server.checkout_shard(0)
        new_generation = server.publish_shard(0, shard_copy)
        assert new_generation == generation + 1
        # The swapped-in copy is state-identical, so estimates are unchanged
        # but re-computed under the new generation (cache was invalidated).
        np.testing.assert_array_equal(server.estimate_batch(workload_2d), first)
        assert server.generation == new_generation

    def test_per_shard_swap_changes_estimates(
        self, mixture_table_2d, workload_2d
    ) -> None:
        sharded = ShardedEstimator(
            {"name": "reservoir_sampling", "sample_size": 128},
            shards=2,
            partitioner="hash",
        ).fit(mixture_table_2d)
        server = EstimatorServer(sharded, cache_size=8)
        shard_copy = server.checkout_shard(1)
        shard_copy.insert(np.random.default_rng(21).normal(5.0, 0.1, size=(5000, 2)))
        server.publish_shard(1, shard_copy)
        served = server.model
        assert isinstance(served, ShardedEstimator)
        assert served.shard(1).row_count > sharded.shard(1).row_count
        assert served.shard(0) is sharded.shard(0)  # untouched shard is shared

    def test_per_shard_swap_requires_sharded_model(self, mixture_table_2d) -> None:
        server = EstimatorServer(create_estimator("equiwidth").fit(mixture_table_2d))
        with pytest.raises(InvalidParameterError, match="not sharded"):
            server.checkout_shard(0)
