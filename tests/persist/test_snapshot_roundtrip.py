"""Snapshot round-trip contract: ``load(save(est))`` is bitwise faithful.

For every registered estimator, saving to a single snapshot file and loading
it back must reproduce ``estimate_batch`` output with zero tolerance, along
with the fitted metadata (columns, row count, memory accounting).  The suite
also pins the satellite guarantees: snapshots flush pending streaming
buffers, restored reservoirs continue their stream identically, and the
format-version policy rejects snapshots from the future instead of guessing.
"""

from __future__ import annotations

import errno
import io
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import NotFittedError, PersistenceError, SnapshotCorruptError
from repro.core.estimator import (
    SelectivityEstimator,
    StreamingEstimator,
    available_estimators,
    create_estimator,
)
from repro.core.streaming import StreamingADE
from repro.engine.table import Table
from repro.persist.snapshot import (
    FORMAT_VERSION,
    load_estimator,
    read_snapshot_header,
    save_estimator,
)
from repro.workload.queries import RangeQuery, compile_queries

ALL_ESTIMATORS = sorted(available_estimators())
STREAMING_ESTIMATORS = [
    name
    for name in ALL_ESTIMATORS
    if isinstance(create_estimator(name), StreamingEstimator)
]

#: Constructor overrides keeping per-test fit cost small.
_FAST_KWARGS: dict[str, dict] = {
    "kde": {"sample_size": 200},
    "adaptive_kde": {"sample_size": 200},
    "sampling": {"sample_size": 200},
    "reservoir_sampling": {"sample_size": 200},
    "streaming_ade": {"max_kernels": 32},
    "grid": {"cells_per_dim": 8},
    "st_histogram": {"cells_per_dim": 6},
    "wavelet": {"resolution": 64, "coefficients": 16},
}


def _fitted(name: str, table: Table) -> SelectivityEstimator:
    return create_estimator(name, **_FAST_KWARGS.get(name, {})).fit(table)


@pytest.mark.parametrize("name", ALL_ESTIMATORS)
class TestRoundTrip:
    def test_estimates_bitwise_equal(
        self, name: str, mixture_table_2d: Table, workload_2d, tmp_path
    ) -> None:
        estimator = _fitted(name, mixture_table_2d)
        plan = compile_queries(workload_2d, estimator.columns)
        before = estimator.estimate_batch(plan)
        path = tmp_path / f"{name}.snap"
        estimator.save(path)
        loaded = load_estimator(path)
        np.testing.assert_allclose(loaded.estimate_batch(plan), before, rtol=0.0, atol=0.0)

    def test_metadata_survives(self, name: str, small_table: Table, tmp_path) -> None:
        estimator = _fitted(name, small_table)
        path = tmp_path / f"{name}.snap"
        estimator.save(path)
        loaded = load_estimator(path)
        assert type(loaded) is type(estimator)
        assert loaded.is_fitted
        assert loaded.columns == estimator.columns
        assert loaded.row_count == estimator.row_count
        assert loaded.memory_bytes() == estimator.memory_bytes()
        assert loaded.config() == estimator.config()

    def test_state_dict_roundtrip_without_disk(
        self, name: str, small_table: Table, workload_1d
    ) -> None:
        estimator = _fitted(name, small_table)
        before = estimator.estimate_batch(workload_1d)
        clone = create_estimator(name, **_FAST_KWARGS.get(name, {}))
        clone.load_state(estimator.state_dict())
        np.testing.assert_allclose(
            clone.estimate_batch(workload_1d), before, rtol=0.0, atol=0.0
        )

    def test_header_is_json_and_versioned(
        self, name: str, small_table: Table, tmp_path
    ) -> None:
        estimator = _fitted(name, small_table)
        path = tmp_path / f"{name}.snap"
        estimator.save(path)
        header = read_snapshot_header(path)
        assert header["format"] == FORMAT_VERSION
        assert header["estimator"] == name
        assert header["columns"] == list(estimator.columns)
        assert header["row_count"] == estimator.row_count
        json.dumps(header)  # the whole header must be pure JSON

    def test_saving_twice_writes_identical_bytes(
        self, name: str, small_table: Table
    ) -> None:
        """A snapshot is a pure function of the model: the same fitted state
        always serialises to the same bytes, CRC included."""
        estimator = _fitted(name, small_table)
        first, second = io.BytesIO(), io.BytesIO()
        save_estimator(estimator, first)
        save_estimator(estimator, second)
        assert first.getvalue() == second.getvalue()

    def test_load_state_rejects_wrong_estimator(
        self, name: str, small_table: Table
    ) -> None:
        estimator = _fitted(name, small_table)
        other = "kde" if name != "kde" else "sampling"
        with pytest.raises(Exception):
            create_estimator(other).load_state(estimator.state_dict())


class TestSnapshotEdgeCases:
    @pytest.mark.parametrize("name", ALL_ESTIMATORS)
    def test_unfitted_estimator_roundtrips_as_unfitted(self, name, tmp_path) -> None:
        estimator = create_estimator(name, **_FAST_KWARGS.get(name, {}))
        path = tmp_path / "unfitted.snap"
        save_estimator(estimator, path)
        loaded = load_estimator(path)
        assert not loaded.is_fitted
        assert loaded.config() == estimator.config()
        with pytest.raises(NotFittedError):
            loaded.estimate(RangeQuery({"x0": (0.0, 1.0)}))

    def test_feedback_log_survives(self, mixture_table_2d, workload_2d, tmp_path) -> None:
        estimator = create_estimator("feedback_ade").fit(mixture_table_2d)
        truths = mixture_table_2d.true_selectivities(workload_2d)
        for query, truth in zip(workload_2d[:25], truths[:25]):
            estimator.feedback(query, float(truth))
        before = estimator.estimate_batch(workload_2d)
        path = tmp_path / "feedback.snap"
        estimator.save(path)
        loaded = load_estimator(path)
        assert loaded.feedback_count == estimator.feedback_count
        assert loaded.record_count == estimator.record_count
        np.testing.assert_allclose(
            loaded.estimate_batch(workload_2d), before, rtol=0.0, atol=0.0
        )

    def test_streaming_pending_buffer_is_flushed_into_snapshot(self, tmp_path) -> None:
        """Regression: rows buffered below chunk_size must not vanish on save."""
        estimator = StreamingADE(max_kernels=32, chunk_size=256)
        estimator.start(["x0", "x1"])
        rows = np.random.default_rng(5).normal(size=(100, 2))  # all stay pending
        estimator.insert(rows)
        assert estimator._pending_count == 100  # the buffer really is populated
        path = tmp_path / "pending.snap"
        estimator.save(path)
        loaded = load_estimator(path)
        assert loaded.row_count == 100
        assert loaded.kernel_count > 0  # flushed into kernels, not dropped
        query = RangeQuery({"x0": (-10.0, 10.0), "x1": (-10.0, 10.0)})
        assert loaded.estimate(query) == estimator.estimate(query) > 0.0

    @pytest.mark.parametrize("name", STREAMING_ESTIMATORS)
    def test_streaming_continues_ingesting_after_load(
        self, name, mixture_table_2d, workload_2d
    ) -> None:
        """A restored streaming model is a live model, not a frozen artifact:
        its state arrays are writable views of the bytes read, and it folds
        new rows exactly as the original does."""
        kwargs = _FAST_KWARGS.get(name, {})
        if name == "sharded":  # the default equi-width base does not stream
            kwargs = {"base": {"name": "streaming_ade", "max_kernels": 32}, "shards": 2}
        original = create_estimator(name, **kwargs).fit(mixture_table_2d)
        buffer = io.BytesIO()
        save_estimator(original, buffer)
        loaded = load_estimator(io.BytesIO(buffer.getvalue()))
        rows = np.random.default_rng(6).normal(loc=3.0, size=(300, 2))
        original.insert(rows)
        loaded.insert(rows)
        plan = compile_queries(workload_2d, original.columns)
        np.testing.assert_array_equal(
            loaded.estimate_batch(plan), original.estimate_batch(plan)
        )

    def test_reservoir_replays_stream_identically_after_load(self, tmp_path) -> None:
        """The restored generator state makes future replacements identical."""
        rng = np.random.default_rng(7)
        first, second = rng.normal(size=(500, 1)), rng.normal(size=(500, 1))
        original = create_estimator("reservoir_sampling", sample_size=64)
        original.start(["x0"])
        original.insert(first)
        path = tmp_path / "reservoir.snap"
        original.save(path)
        loaded = load_estimator(path)
        original.insert(second)
        loaded.insert(second)
        np.testing.assert_array_equal(
            loaded._reservoir.sample(), original._reservoir.sample()
        )

    def test_future_format_rejected(self, small_table, tmp_path) -> None:
        """An intact snapshot from a newer format is refused with a plain
        PersistenceError naming the format — not quarantined as corrupt."""
        estimator = create_estimator("independence").fit(small_table)
        path = tmp_path / "future.snap"
        estimator.save(path)
        body = path.read_bytes()[:-4]
        marker = f'"format": {FORMAT_VERSION}'.encode()
        assert body.count(marker) == 1
        body = body.replace(marker, f'"format": {FORMAT_VERSION + 1}'.encode())
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(PersistenceError, match="format") as excinfo:
            load_estimator(path)
        assert not isinstance(excinfo.value, SnapshotCorruptError)

    def test_non_snapshot_archive_rejected(self, tmp_path) -> None:
        """A foreign file is refused: as corrupt when its last four bytes are
        not a CRC-32 of the rest, and as not-a-snapshot when they are."""
        path = tmp_path / "not_a_snapshot.snap"
        path.write_bytes(b"PK\x03\x04 a zip archive, say")
        with pytest.raises(SnapshotCorruptError):
            load_estimator(path)
        body = b"a foreign file that ends in its own CRC-32"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(PersistenceError, match="not an estimator snapshot"):
            load_estimator(path)

    def test_transient_io_error_is_not_corruption(
        self, small_table, tmp_path, monkeypatch
    ) -> None:
        """An errno-bearing OSError (EIO, EACCES, …) is the OS failing the
        read, not evidence of bad bytes: it must propagate verbatim so the
        store never quarantines an intact snapshot over it."""
        estimator = create_estimator("independence").fit(small_table)
        path = tmp_path / "intact.snap"
        estimator.save(path)

        def eio(*args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(Path, "read_bytes", eio)
        with pytest.raises(OSError) as excinfo:
            load_estimator(path)
        assert not isinstance(excinfo.value, SnapshotCorruptError)
        assert excinfo.value.errno == errno.EIO
