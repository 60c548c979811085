"""Crash safety: checksums, quarantine + rollback, pointer repair, journal.

Every crash in this file is simulated deterministically through a
:class:`~repro.fault.FaultPlan` — no process kills — so each scenario replays
bit-for-bit.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    InjectedFault,
    PersistenceError,
    SnapshotCorruptError,
    StreamError,
)
from repro.core.kde import KDESelectivityEstimator
from repro.core.streaming import StreamingADE
from repro.data.generators import gaussian_mixture_table
from repro.fault.plan import FaultPlan, use_fault_plan
from repro.persist.journal import IngestJournal, JournaledIngest
from repro.persist.snapshot import load_estimator, save_estimator, verify_snapshot
from repro.persist.store import ModelStore
from repro.workload.generators import UniformWorkload
from repro.workload.queries import compile_queries

TABLE = gaussian_mixture_table(rows=1500, dimensions=2, seed=11, name="crash")
WORKLOAD = UniformWorkload(TABLE, volume_fraction=0.2, seed=12).generate(40)


def _fit(sample_size: int = 120) -> KDESelectivityEstimator:
    return KDESelectivityEstimator(sample_size=sample_size).fit(TABLE)


def _estimates(estimator) -> np.ndarray:
    return estimator.estimate_batch(compile_queries(WORKLOAD, estimator.columns))


# One snapshot, fitted and serialized once for the whole property run.
_REFERENCE = _fit()
_REFERENCE_ESTIMATES = _estimates(_REFERENCE)


@pytest.fixture(scope="module")
def snapshot_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("prop") / "ref.npz"
    save_estimator(_REFERENCE, path)
    return path.read_bytes()


class TestChecksumProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_bitflip_is_detected_or_harmless(
        self, data, snapshot_bytes: bytes, tmp_path_factory
    ) -> None:
        """Flip any one bit of a snapshot: the load either raises the typed
        corruption error or returns a bitwise-identical model (flips in zip
        padding/metadata that the reader never consumes are harmless) — it
        never silently serves corrupted estimates."""
        position = data.draw(
            st.integers(min_value=0, max_value=len(snapshot_bytes) * 8 - 1)
        )
        corrupted = bytearray(snapshot_bytes)
        corrupted[position // 8] ^= 1 << (position % 8)
        path = tmp_path_factory.mktemp("flip") / "flip.npz"
        path.write_bytes(bytes(corrupted))
        try:
            loaded = load_estimator(path)
        except (SnapshotCorruptError, PersistenceError):
            return
        np.testing.assert_array_equal(_estimates(loaded), _REFERENCE_ESTIMATES)

    @pytest.mark.parametrize(
        "signature, field, mask",
        [
            (b"PK\x01\x02", 6, 0x40),  # version needed: unsupported
            (b"PK\x01\x02", 8, 0x01),  # flag bit 0: encrypted
            (b"PK\x01\x02", 10, 0x01),  # compression method: unsupported
            (b"PK\x01\x02", 33, 0x80),  # comment length: hides later members
            (b"PK\x05\x06", 16, 0x08),  # directory offset: negative seek
        ],
    )
    def test_zip_structure_flip_is_typed(
        self, snapshot_bytes: bytes, tmp_path, signature, field, mask
    ) -> None:
        """Flips in the zip directory fields that the archive reader acts on
        (rather than the checksummed payload) still surface as the typed
        corruption error."""
        corrupted = bytearray(snapshot_bytes)
        corrupted[snapshot_bytes.index(signature) + field] ^= mask
        path = tmp_path / "flip.npz"
        path.write_bytes(bytes(corrupted))
        with pytest.raises(SnapshotCorruptError):
            load_estimator(path)

    def test_verify_snapshot_reports_checksum_presence(self, tmp_path) -> None:
        path = tmp_path / "ok.npz"
        save_estimator(_REFERENCE, path)
        assert verify_snapshot(path) is True


class TestTornPublish:
    def test_verified_publish_absorbs_torn_writes(self, tmp_path) -> None:
        store = ModelStore(tmp_path)
        plan = FaultPlan(seed=1)
        rule = plan.arm("persist.publish.write", action="torn", at=(1, 2))
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)
        assert rule.fired == 2  # two rewrites, third attempt clean
        np.testing.assert_array_equal(
            _estimates(store.load("m")), _REFERENCE_ESTIMATES
        )

    def test_unverified_corrupt_publish_rolls_back(self, tmp_path) -> None:
        store = ModelStore(tmp_path, verify_publish=False)
        intact = _fit(sample_size=90)
        store.publish("m", intact)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.write", action="torn")
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)  # lands corrupt as v2

        version, loaded = store.load_latest("m")
        assert version.version == 1
        np.testing.assert_array_equal(_estimates(loaded), _estimates(intact))
        # The corrupt version was quarantined aside and the pointer repaired.
        assert list(tmp_path.glob("m/*.corrupt"))
        assert (tmp_path / "m" / "LATEST").read_text().strip() == "1"

    def test_all_versions_corrupt_raises_persistence_error(self, tmp_path) -> None:
        store = ModelStore(tmp_path, verify_publish=False)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.write", action="torn")
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)
        with pytest.raises(PersistenceError):
            store.load_latest("m")

    def test_explicit_version_load_raises_without_quarantine(self, tmp_path) -> None:
        store = ModelStore(tmp_path, verify_publish=False)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.write", action="torn")
        with use_fault_plan(plan):
            store.publish("m", _REFERENCE)
        with pytest.raises(SnapshotCorruptError):
            store.load("m", version=1)
        assert not list(tmp_path.glob("m/*.corrupt"))  # targeted load: no rename


class TestCrashedPublish:
    def test_crash_before_pointer_flip_never_commits(self, tmp_path) -> None:
        """The pointer flip is the commit point: a crash after the version
        slot is claimed but before the flip leaves the previous version
        live, and the next publish simply skips past the orphaned slot."""
        intact = _fit(sample_size=90)
        store = ModelStore(tmp_path)
        store.publish("m", intact)
        plan = FaultPlan(seed=1)
        plan.arm("persist.publish.crash", action="raise")
        with use_fault_plan(plan):
            with pytest.raises(InjectedFault):
                store.publish("m", _REFERENCE)

        # The crashed publish never committed: readers still get v1.
        restarted = ModelStore(tmp_path)
        assert restarted.latest_version("m") == 1
        np.testing.assert_array_equal(
            _estimates(restarted.load("m")), _estimates(intact)
        )
        # The orphaned v2 slot is claimed, so the next publish takes v3 and
        # commits normally.
        version = restarted.publish("m", _REFERENCE)
        assert version.version == 3
        assert (tmp_path / "m" / "LATEST").read_text().strip() == "3"
        np.testing.assert_array_equal(
            _estimates(restarted.load("m")), _REFERENCE_ESTIMATES
        )


class TestDurablePublish:
    @pytest.fixture()
    def events(self, monkeypatch) -> list[tuple[str, object]]:
        """Record, in call order, each ``os.fsync`` by the inode it syncs and
        each ``os.link``/``os.replace`` by the name it puts in place."""
        events: list[tuple[str, object]] = []
        real_fsync, real_link, real_replace = os.fsync, os.link, os.replace

        def fsync(fd: int) -> None:
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def link(source, target, **kwargs) -> None:
            real_link(source, target, **kwargs)
            events.append(("rename", Path(target).name))

        def replace(source, target, **kwargs) -> None:
            real_replace(source, target, **kwargs)
            events.append(("rename", Path(target).name))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "link", link)
        monkeypatch.setattr(os, "replace", replace)
        return events

    @staticmethod
    def _directory_sync_after_flip(events, published, model_dir: Path) -> int:
        """Check one publish's sync order; return the directory sync's index."""
        snapshot_sync = ("fsync", published.path.stat().st_ino)
        directory_sync = ("fsync", model_dir.stat().st_ino)
        claim = ("rename", published.path.name)
        flip = ("rename", "LATEST")
        assert snapshot_sync in events and claim in events
        assert events.index(snapshot_sync) < events.index(claim)
        assert flip in events
        assert directory_sync in events[events.index(flip) + 1 :]
        return events.index(directory_sync, events.index(flip))

    def test_publish_syncs_snapshot_before_claim_and_directory_after_flip(
        self, tmp_path, events
    ) -> None:
        """A returned publish survives power loss: the snapshot's bytes are
        fsynced before the claim links them into the version slot, and the
        model directory is fsynced after the LATEST flip renames the
        pointer into place."""
        published = ModelStore(tmp_path).publish("m", _REFERENCE)
        self._directory_sync_after_flip(events, published, tmp_path / "m")

    def test_unverified_publish_is_synced_too(self, tmp_path, events) -> None:
        """Skipping the read-back verification does not skip the syncs."""
        store = ModelStore(tmp_path, verify_publish=False)
        published = store.publish("m", _REFERENCE)
        self._directory_sync_after_flip(events, published, tmp_path / "m")

    def test_checkpoint_is_durable_before_the_journal_is_reset(
        self, tmp_path, events
    ) -> None:
        """The journal may drop acknowledged rows only once the snapshot that
        holds them survives power loss: the model directory is synced after
        the LATEST flip and before the reset record replaces the journal."""
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            ModelStore(tmp_path / "store"),
            "m",
        )
        ingest.insert(TABLE.as_matrix()[:32])
        events.clear()
        published = ingest.checkpoint()
        ingest.close()
        directory_sync = self._directory_sync_after_flip(
            events, published, tmp_path / "store" / "m"
        )
        assert directory_sync < events.index(("rename", "wal"))

    def test_journal_reset_syncs_record_then_directory(self, tmp_path, events) -> None:
        """The checkpoint record is synced before it replaces the journal and
        the journal's directory after, so the truncation itself is durable."""
        journal = IngestJournal(tmp_path / "wal")
        journal.append_rows(np.ones((4, 2)))
        events.clear()
        journal.reset(7)
        journal.close()
        record_sync = ("fsync", (tmp_path / "wal").stat().st_ino)
        directory_sync = ("fsync", tmp_path.stat().st_ino)
        reset = ("rename", "wal")
        assert record_sync in events and reset in events and directory_sync in events
        assert (
            events.index(record_sync)
            < events.index(reset)
            < events.index(directory_sync)
        )

    def test_journal_without_fsync_never_syncs(self, tmp_path, events) -> None:
        """``fsync=False`` gives up durability on every journal path, the
        reset's directory sync included."""
        journal = IngestJournal(tmp_path / "wal", fsync=False)
        journal.append_rows(np.ones((4, 2)))
        journal.reset(7)
        journal.close()
        assert ("rename", "wal") in events
        assert [event for event in events if event[0] == "fsync"] == []


class TestPointerRegression:
    @pytest.fixture()
    def store(self, tmp_path) -> ModelStore:
        store = ModelStore(tmp_path)
        store.publish("m", _fit(sample_size=90))
        store.publish("m", _REFERENCE)
        return store

    def test_zero_byte_pointer_falls_back_and_rewrites(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.write_bytes(b"")
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_garbage_pointer_falls_back_and_rewrites(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.write_text("not-a-version\n")
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_missing_pointer_falls_back_and_rewrites(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.unlink()
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_dangling_pointer_falls_back(self, store) -> None:
        pointer = store.root / "m" / "LATEST"
        pointer.write_text("99\n")
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "2"

    def test_repair_never_regresses_a_valid_pointer(self, store) -> None:
        """A repair computed from a stale scan must lose to a concurrent
        publisher's newer pointer: the regress is only allowed when the
        pointed-to snapshot file is actually gone."""
        model_dir = store.root / "m"
        ModelStore._write_pointer(model_dir, 1, repair=True)
        assert (model_dir / "LATEST").read_text().strip() == "2"
        # Once v2 is gone (quarantined/deleted), the repair may regress.
        (model_dir / "v00000002.npz").unlink()
        ModelStore._write_pointer(model_dir, 1, repair=True)
        assert (model_dir / "LATEST").read_text().strip() == "1"

    def test_read_only_store_resolves_via_scan(self, store, monkeypatch) -> None:
        """A stale pointer on a store we cannot write to must still resolve
        through the version scan instead of raising from the repair."""
        pointer = store.root / "m" / "LATEST"
        pointer.write_text("99\n")

        def deny(*args, **kwargs):
            raise PermissionError(13, "read-only store")

        monkeypatch.setattr(ModelStore, "_write_pointer", staticmethod(deny))
        assert store.latest_version("m") == 2
        assert pointer.read_text().strip() == "99"  # nothing was rewritten


class TestJournalCrashConsistency:
    def _batches(self, count: int = 8, rows: int = 32) -> list[np.ndarray]:
        rng = np.random.default_rng(3)
        matrix = TABLE.as_matrix()
        lo, hi = matrix.min(axis=0), matrix.max(axis=0)
        return [rng.uniform(lo, hi, size=(rows, 2)) for _ in range(count)]

    def _reference(self, batches, checkpoint_after: int) -> StreamingADE:
        reference = StreamingADE(max_kernels=48).fit(TABLE)
        for index, batch in enumerate(batches):
            reference.insert(batch)
            if index == checkpoint_after:
                reference.flush()  # the checkpoint's flush boundary
        reference.flush()
        return reference

    def test_replay_reproduces_the_model_bitwise(self, tmp_path) -> None:
        batches = self._batches()
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        for index, batch in enumerate(batches):
            ingest.insert(batch)
            if index == 2:
                ingest.checkpoint()
        ingest.journal.close()  # crash: pending batches only in the journal

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["replayed_batches"] == len(batches) - 3
        assert not recovered.last_recovery["torn_tail"]
        recovered.flush()
        np.testing.assert_array_equal(
            _estimates(recovered.estimator),
            _estimates(self._reference(batches, checkpoint_after=2)),
        )
        recovered.close()

    def test_non_finite_batch_is_never_journaled(self, tmp_path) -> None:
        """An inf row used to zero the model, and the journal made it durable:
        recovery replayed the row and rebuilt the zeroed model."""
        batches = self._batches(count=3)
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        ingest.checkpoint()
        ingest.insert(batches[0])
        poisoned = batches[1].copy()
        poisoned[5, 0] = np.inf
        with pytest.raises(StreamError):
            ingest.insert(poisoned)
        ingest.insert(batches[2])
        ingest.flush()
        live = _estimates(ingest.estimator)
        ingest.journal.close()

        reference = StreamingADE(max_kernels=48).fit(TABLE)
        reference.flush()  # the checkpoint's flush boundary
        reference.insert(batches[0])
        reference.insert(batches[2])
        reference.flush()
        np.testing.assert_array_equal(live, _estimates(reference))
        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["replayed_batches"] == 2
        recovered.flush()
        np.testing.assert_array_equal(_estimates(recovered.estimator), live)
        recovered.close()

    def test_torn_tail_is_discarded(self, tmp_path) -> None:
        batches = self._batches()
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        plan = FaultPlan(seed=2)
        plan.arm("persist.journal.append", action="torn", at=(len(batches),))
        with use_fault_plan(plan):
            for index, batch in enumerate(batches):
                ingest.insert(batch)
                if index == 2:
                    ingest.checkpoint()
        ingest.journal.close()

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["torn_tail"]
        assert recovered.last_recovery["replayed_batches"] == len(batches) - 4
        recovered.flush()
        np.testing.assert_array_equal(
            _estimates(recovered.estimator),
            _estimates(self._reference(batches[:-1], checkpoint_after=2)),
        )
        recovered.close()

    def test_torn_tail_is_truncated_before_new_appends(self, tmp_path) -> None:
        """Recovery cuts the garbage tail off the journal: batches inserted
        *after* a torn-tail recovery land contiguously after the last intact
        record, so they survive a second crash (the journal reopens in append
        mode — without the truncation they would be written past the garbage
        and be unreachable to replay)."""
        batches = self._batches()
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        plan = FaultPlan(seed=2)
        plan.arm("persist.journal.append", action="torn", at=(len(batches),))
        with use_fault_plan(plan):
            for index, batch in enumerate(batches):
                ingest.insert(batch)
                if index == 2:
                    ingest.checkpoint()
        ingest.journal.close()

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["torn_tail"]
        extra = self._batches(count=2, rows=16)
        for batch in extra:
            recovered.insert(batch)
        recovered.close()  # second crash, before any checkpoint

        again = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert not again.last_recovery["torn_tail"]
        assert (
            again.last_recovery["replayed_batches"]
            == (len(batches) - 4) + len(extra)
        )
        again.flush()
        np.testing.assert_array_equal(
            _estimates(again.estimator),
            _estimates(self._reference(batches[:-1] + extra, checkpoint_after=2)),
        )
        again.close()

    def test_stale_journal_is_not_replayed(self, tmp_path) -> None:
        """A journal whose checkpoint predates the loaded snapshot (someone
        published past it out-of-band) must not replay old rows on top."""
        batches = self._batches(count=4)
        store = ModelStore(tmp_path / "store")
        ingest = JournaledIngest(
            StreamingADE(max_kernels=48).fit(TABLE),
            IngestJournal(tmp_path / "wal"),
            store,
            "m",
        )
        for batch in batches:
            ingest.insert(batch)
        ingest.checkpoint()
        ingest.insert(batches[0])
        ingest.journal.close()
        # Out-of-band publish: the store moves past the journal's checkpoint.
        out_of_band = StreamingADE(max_kernels=48).fit(TABLE)
        store.publish("m", out_of_band)

        recovered = JournaledIngest.recover(
            IngestJournal(tmp_path / "wal"), store, "m"
        )
        assert recovered.last_recovery["loaded_version"] == 2
        assert recovered.last_recovery["checkpoint_version"] == 1
        assert recovered.last_recovery["replayed_batches"] == 0
        recovered.close()
