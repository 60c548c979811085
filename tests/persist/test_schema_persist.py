"""Schema payloads in persistence envelopes: snapshots and the model store
must carry the dictionary bitwise and reject drifted restores."""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_estimator
from repro.core.errors import CatalogError
from repro.data.generators import mixed_type_table
from repro.engine.catalog import Catalog
from repro.engine.table import Table, TableSchema
from repro.persist.snapshot import load_estimator, read_snapshot_header, save_estimator
from repro.persist.store import ModelStore
from repro.workload.queries import SetMembership, StringPrefix, TypedQuery


@pytest.fixture()
def table() -> Table:
    return mixed_type_table(800, seed=3)


@pytest.fixture()
def catalog(table: Table) -> Catalog:
    catalog = Catalog()
    catalog.add_table(table)
    catalog.attach_estimator(
        table.name, create_estimator("equidepth", buckets=16)
    )
    return catalog


def _fitted(table: Table):
    estimator = create_estimator("equidepth", buckets=16)
    estimator.fit(table)
    return estimator


class TestSnapshotSchema:
    def test_header_carries_schema_bitwise(self, table: Table, tmp_path) -> None:
        path = tmp_path / "model.npz"
        save_estimator(_fitted(table), path, schema=table.schema.to_json())
        header = read_snapshot_header(path)
        assert header["schema"] == table.schema.to_json()
        restored = TableSchema.from_json(header["schema"])
        for column in table.schema.encoded_columns:
            assert restored.dictionary(column) == table.schema.dictionary(column)

    def test_header_without_schema_stays_clean(self, tmp_path) -> None:
        numeric = Table("n", {"x": np.arange(50, dtype=float)})
        path = tmp_path / "plain.npz"
        save_estimator(_fitted(numeric), path)
        assert "schema" not in read_snapshot_header(path)
        load_estimator(path)  # still loads fine

    def test_snapshot_roundtrip_estimates_typed_queries(
        self, table: Table, tmp_path
    ) -> None:
        estimator = _fitted(table)
        path = tmp_path / "model.npz"
        save_estimator(estimator, path, schema=table.schema.to_json())
        loaded = load_estimator(path)
        catalog = Catalog()
        catalog.add_table(table)
        catalog.attach_fitted(table.name, loaded)
        query = TypedQuery({"product": StringPrefix("auto")})
        before = _estimate_with(estimator, table, query)
        after = catalog.estimate_selectivity(table.name, query)
        assert after == pytest.approx(before)


def _estimate_with(estimator, table: Table, query: TypedQuery) -> float:
    catalog = Catalog()
    catalog.add_table(table)
    catalog.attach_fitted(table.name, estimator)
    return catalog.estimate_selectivity(table.name, query)


class TestModelStoreSchema:
    def test_publish_describe_roundtrip(self, table: Table, tmp_path) -> None:
        store = ModelStore(tmp_path)
        store.publish("m", _fitted(table), schema=table.schema.to_json())
        assert store.describe("m")["schema"] == table.schema.to_json()

    def test_catalog_save_restore_roundtrip(
        self, catalog: Catalog, table: Table, tmp_path
    ) -> None:
        store = ModelStore(tmp_path)
        versions = catalog.save(store)
        assert versions == {table.name: 1}
        fresh = Catalog()
        fresh.add_table(table)
        assert fresh.restore(store) == [table.name]
        query = TypedQuery(
            {"region": SetMembership(["north", "south"]), "product": StringPrefix("bio")}
        )
        assert fresh.estimate_selectivity(table.name, query) == pytest.approx(
            catalog.estimate_selectivity(table.name, query)
        )

    def test_restore_rejects_dictionary_drift(
        self, catalog: Catalog, table: Table, tmp_path
    ) -> None:
        store = ModelStore(tmp_path)
        catalog.save(store)
        # Appending a novel dictionary value recodes the column: the saved
        # synopsis no longer matches the live code space.
        table.append_rows(
            {
                "amount": [1.0],
                "score": [0.0],
                "region": ["a-brand-new-region"],
                "product": ["auto-0000"],
            }
        )
        with pytest.raises(CatalogError, match="dictionary drift"):
            catalog.restore(store, tables=[table.name])

    def test_numeric_save_restore_untouched(self, tmp_path) -> None:
        numeric = Table("n", {"x": np.arange(100, dtype=float)})
        catalog = Catalog()
        catalog.add_table(numeric)
        catalog.attach_estimator("n", create_estimator("equiwidth", buckets=8))
        store = ModelStore(tmp_path)
        catalog.save(store)
        assert "schema" not in store.describe("n")
        fresh = Catalog()
        fresh.add_table(numeric)
        assert fresh.restore(store) == ["n"]
