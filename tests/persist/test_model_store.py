"""ModelStore semantics and the catalog's save/restore integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.histogram import EquiDepthHistogram
from repro.core.errors import CatalogError, PersistenceError
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table, uniform_table
from repro.engine.catalog import Catalog
from repro.experiments.runner import (
    EstimatorSpec,
    fit_or_restore,
    use_model_store,
    use_sharding,
)
from repro.persist.snapshot import save_estimator
from repro.persist.store import ModelStore
from repro.shard.sharded import ShardedEstimator
from repro.workload.generators import UniformWorkload
from repro.workload.queries import RangeQuery


@pytest.fixture()
def store(tmp_path) -> ModelStore:
    return ModelStore(tmp_path / "models")


@pytest.fixture()
def fitted(small_table) -> KDESelectivityEstimator:
    return KDESelectivityEstimator(sample_size=100).fit(small_table)


class TestModelStore:
    def test_publish_assigns_monotonic_versions(self, store, fitted) -> None:
        assert store.latest_version("m") is None
        assert store.publish("m", fitted).version == 1
        assert store.publish("m", fitted).version == 2
        assert store.publish("m", fitted).version == 3
        assert store.versions("m") == [1, 2, 3]
        assert store.latest_version("m") == 3

    def test_load_latest_and_pinned_version(
        self, store, small_table, workload_1d
    ) -> None:
        v1 = KDESelectivityEstimator(sample_size=50).fit(small_table)
        v2 = KDESelectivityEstimator(sample_size=150).fit(small_table)
        store.publish("m", v1)
        store.publish("m", v2)
        np.testing.assert_array_equal(
            store.load("m").estimate_batch(workload_1d), v2.estimate_batch(workload_1d)
        )
        np.testing.assert_array_equal(
            store.load("m", 1).estimate_batch(workload_1d),
            v1.estimate_batch(workload_1d),
        )

    def test_publish_is_write_then_rename(self, store, fitted) -> None:
        version = store.publish("m", fitted)
        assert version.path.is_file()
        # No temp debris is left next to the published snapshot.
        leftovers = [p for p in version.path.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        # The LATEST pointer names the published version.
        assert (version.path.parent / "LATEST").read_text().strip() == "1"

    def test_latest_pointer_falls_back_to_files(self, store, fitted) -> None:
        store.publish("m", fitted)
        store.publish("m", fitted)
        (store.root / "m" / "LATEST").unlink()  # stale/corrupt pointer scenario
        assert store.latest_version("m") == 2
        assert store.load("m") is not None

    def test_prune_keeps_newest(self, store, fitted) -> None:
        for _ in range(5):
            store.publish("m", fitted)
        removed = store.prune("m", keep_versions=2)
        assert removed == [1, 2, 3]
        assert store.versions("m") == [4, 5]
        assert store.latest_version("m") == 5

    def test_default_prune_policy_applies_on_publish(self, tmp_path, fitted) -> None:
        store = ModelStore(tmp_path / "models", keep_versions=2)
        for _ in range(4):
            store.publish("m", fitted)
        assert store.versions("m") == [3, 4]

    def test_model_names_lists_published_models(self, store, fitted) -> None:
        assert store.model_names() == []
        store.publish("orders.kde", fitted)
        store.publish("users-v2", fitted)
        assert store.model_names() == ["orders.kde", "users-v2"]

    def test_invalid_model_name_rejected(self, store, fitted) -> None:
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(PersistenceError):
                store.publish(bad, fitted)

    def test_unknown_model_and_version_raise(self, store, fitted) -> None:
        with pytest.raises(PersistenceError, match="no published versions"):
            store.load("ghost")
        store.publish("m", fitted)
        with pytest.raises(PersistenceError, match="no version"):
            store.load("m", 99)

    def test_racing_publishers_never_overwrite(self, store, small_table) -> None:
        """Version slots are claimed atomically: concurrent publishers each
        get their own snapshot file, never a silent overwrite."""
        import threading

        models = [
            KDESelectivityEstimator(sample_size=10 + i).fit(small_table)
            for i in range(8)
        ]
        # Defeat the in-process lock's serialisation of the version scan by
        # publishing through independent store handles on the same directory
        # (the cross-process scenario).
        stores = [ModelStore(store.root) for _ in models]
        barrier = threading.Barrier(len(models))

        def publish(slot: int) -> None:
            barrier.wait()
            stores[slot].publish("m", models[slot])

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(len(models))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.versions("m") == list(range(1, len(models) + 1))
        # Every distinct model survived: sample sizes are all present.
        sizes = sorted(store.load("m", v).sample_size for v in store.versions("m"))
        assert sizes == [10 + i for i in range(len(models))]
        assert store.latest_version("m") == len(models)

    def test_describe_reads_header_only(self, store, fitted, small_table) -> None:
        store.publish("m", fitted)
        header = store.describe("m")
        assert header["estimator"] == "kde"
        assert header["row_count"] == small_table.row_count


class TestCatalogPersistence:
    @pytest.fixture()
    def catalog(self) -> Catalog:
        catalog = Catalog()
        catalog.add_table(
            gaussian_mixture_table(rows=3000, dimensions=2, seed=3, name="orders")
        )
        catalog.add_table(uniform_table(rows=1000, dimensions=1, seed=4, name="users"))
        catalog.attach_estimator("orders", StreamingADE(max_kernels=32))
        catalog.attach_estimator("users", EquiDepthHistogram(buckets=16))
        return catalog

    def test_save_restore_roundtrip_is_bitwise(self, catalog, store) -> None:
        workload = UniformWorkload(catalog.table("orders"), seed=5).generate(40)
        before = catalog.estimate_batch("orders", workload)
        versions = catalog.save(store)
        assert versions == {"orders": 1, "users": 1}

        fresh = Catalog()
        fresh.add_table(catalog.table("orders"))
        fresh.add_table(catalog.table("users"))
        restored = fresh.restore(store)
        assert sorted(restored) == ["orders", "users"]
        assert type(fresh.estimator("orders")) is StreamingADE
        np.testing.assert_array_equal(
            fresh.estimate_batch("orders", workload), before
        )

    def test_restore_skips_tables_without_models(self, catalog, store) -> None:
        catalog.save(store)
        fresh = Catalog()
        fresh.add_table(catalog.table("orders"))
        fresh.add_table(uniform_table(rows=10, dimensions=1, seed=9, name="extra"))
        assert fresh.restore(store) == ["orders"]
        assert fresh.estimator("extra") is None

    def test_restore_explicit_missing_model_raises(self, catalog, store) -> None:
        fresh = Catalog()
        fresh.add_table(catalog.table("orders"))
        with pytest.raises(CatalogError, match="no model"):
            fresh.restore(store, tables=["orders"])

    def test_attach_fitted_validates(self, catalog, small_table) -> None:
        with pytest.raises(CatalogError, match="unfitted"):
            catalog.attach_fitted("users", EquiDepthHistogram(buckets=4))
        foreign = EquiDepthHistogram(buckets=4).fit(
            uniform_table(rows=50, dimensions=3, seed=1, name="wide")
        )
        with pytest.raises(CatalogError, match="lacks"):
            catalog.attach_fitted("users", foreign)

    def test_save_includes_pending_streaming_rows(self, catalog, store) -> None:
        """Regression: rows buffered in the ingestion buffer reach the store."""
        estimator = catalog.estimator("orders")
        extra = np.random.default_rng(11).normal(loc=9.0, size=(50, 2))
        estimator.insert(extra)  # stays entirely in the pending buffer
        catalog.save(store)
        loaded = store.load("orders")
        assert loaded.row_count == estimator.row_count
        probe = RangeQuery({"x0": (8.0, 10.0), "x1": (8.0, 10.0)})
        assert loaded.estimate(probe) == estimator.estimate(probe) > 0.0

    def test_runner_saves_and_restores_models(
        self, store, small_table, workload_1d
    ) -> None:
        """The CLI's --save-models / --from-store path through the runner."""
        spec = EstimatorSpec("kde", lambda: KDESelectivityEstimator(sample_size=64))
        with use_model_store(store, save=True):
            fitted = fit_or_restore(small_table, spec, scope="s1")
        assert store.versions("small.s1.kde") == [1]
        with use_model_store(store, load=True):
            restored = fit_or_restore(small_table, spec, scope="s1")
        np.testing.assert_array_equal(
            restored.estimate_batch(workload_1d), fitted.estimate_batch(workload_1d)
        )
        # Models the store does not know fall back to a fresh fit.
        with use_model_store(store, load=True):
            fresh = fit_or_restore(small_table, spec, scope="other")
        assert fresh.is_fitted
        # Outside the context the store is untouched.
        fit_or_restore(small_table, spec, scope="outside")
        assert store.model_names() == ["small.s1.kde"]

    def test_runner_store_names_carry_the_sharding_overlay(
        self, store, small_table
    ) -> None:
        """--from-store never serves a model fitted under another --shards."""
        spec = EstimatorSpec("kde", lambda: KDESelectivityEstimator(sample_size=64))
        with use_model_store(store, save=True):
            fit_or_restore(small_table, spec, scope="mono")
        with use_model_store(store, load=True), use_sharding(4):
            sharded = fit_or_restore(small_table, spec, scope="mono")
        assert isinstance(sharded, ShardedEstimator)
        assert sharded.shard_count == 4

        with use_model_store(store, save=True), use_sharding(2):
            fit_or_restore(small_table, spec, scope="sharded")
        with use_model_store(store, load=True):
            monolithic = fit_or_restore(small_table, spec, scope="sharded")
        assert isinstance(monolithic, KDESelectivityEstimator)
        with use_model_store(store, load=True), use_sharding(2):
            restored = fit_or_restore(small_table, spec, scope="sharded")
        assert isinstance(restored, ShardedEstimator)
        assert store.model_names() == ["small.mono.kde", "small.sharded.kde.shards2-hash"]

    def test_refresh_flushes_streaming_estimators_first(self) -> None:
        """Regression: refresh must flush the pending buffer before refitting."""
        flushes: list[int] = []

        class SpyADE(StreamingADE):
            def flush(self) -> None:
                flushes.append(self._pending_count)
                super().flush()

        table = gaussian_mixture_table(rows=1000, dimensions=2, seed=6, name="t")
        catalog = Catalog()
        catalog.add_table(table)
        estimator = SpyADE(max_kernels=32)
        catalog.attach_estimator("t", estimator)
        fresh_rows = np.random.default_rng(12).normal(size=(30, 2))
        table.append_matrix(fresh_rows)
        estimator.insert(fresh_rows)
        pending = estimator._pending_count
        assert pending > 0
        flushes.clear()
        catalog.refresh("t")
        # The first flush of the refresh saw the populated buffer — the
        # pending rows were folded in, not torn down with the old model.
        assert flushes and flushes[0] == pending
        assert estimator.row_count == table.row_count


class TestForeignEntriesTolerance:
    """Regression: foreign files/directories in the store tree (an export
    directory, stray notes, backups) must not break version scans, LATEST
    resolution or prune."""

    def test_foreign_files_in_root_and_model_dir_ignored(self, store, fitted) -> None:
        store.publish("m", fitted)
        (store.root / "README.md").write_text("not a model\n")
        (store.root / "m" / "notes.txt").write_text("scratch\n")
        backup = store._version_path("m", 1).name + ".bak"
        (store.root / "m" / backup).write_bytes(b"junk")
        assert store.model_names() == ["m"]
        assert store.versions("m") == [1]
        assert store.latest_version("m") == 1

    def test_directory_squatting_on_a_version_name(self, store, fitted) -> None:
        """A *directory* named like a snapshot file must be ignored, not
        treated as a version (loading/pruning it would fail)."""
        store.publish("m", fitted)
        squatter = store._version_path("m", 2)
        squatter.mkdir()
        (squatter / "part.snap").write_bytes(b"x")
        assert store.versions("m") == [1]
        assert store.latest_version("m") == 1
        # Publishing routes around the squatter (os.link refuses the slot).
        version = store.publish("m", fitted)
        assert version.version >= 2
        assert version.path.is_file()
        loaded = store.load("m")
        assert loaded.is_fitted

    def test_prune_skips_foreign_directories(self, store, fitted) -> None:
        store.publish("m", fitted)
        store.publish("m", fitted)
        squatter = store._version_path("m", 99)
        squatter.mkdir()
        (squatter / "inner").write_bytes(b"x")
        removed = store.prune("m", keep_versions=1)
        assert removed == [1]
        assert squatter.is_dir()  # never deleted, never crashed the prune
        assert store.versions("m") == [2]

    def test_foreign_directory_beside_models(self, store, fitted) -> None:
        store.publish("m", fitted)
        save_estimator(fitted, store.root / "export" / "shard-0000.snap")
        save_estimator(fitted, store.root / "m" / "export" / "shard-0000.snap")
        assert store.model_names() == ["m"]
        assert store.versions("m") == [1]
        assert store.load("m").is_fitted
