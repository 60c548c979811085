"""Write-ahead ingest journal: pending stream rows survive a crash.

A :class:`StreamingADE` buffers up to ``chunk_size - 1`` rows between
maintenance steps, and even folded-in rows live only in memory until the
model is published — a process death loses everything since the last
snapshot.  The journal closes that window with the classic WAL protocol:

1. **Log first.**  :meth:`JournaledIngest.insert` appends the row batch to
   an append-only, fsync'd journal file *before* handing it to the model.
2. **Checkpoint.**  :meth:`JournaledIngest.checkpoint` flushes the model,
   publishes it to a :class:`~repro.persist.store.ModelStore`, then resets
   the journal to a single checkpoint record naming the published version —
   atomically, via write-temp + ``os.replace``.
3. **Recover.**  :meth:`JournaledIngest.recover` loads the newest intact
   store version and replays every journaled batch logged after the matching
   checkpoint, *in the original batch boundaries*.  Because ``StreamingADE``
   ingestion is batch-invariant (chunk boundaries depend only on the row
   count since ``fit``) and ``state_dict()`` flushes before publishing, the
   recovered model is **bitwise identical** to the pre-crash one.

Journal records are individually CRC-32'd with a torn-tail discard rule: a
record that is truncated or fails its CRC (a crash mid-append) ends the
replay at the last intact record, exactly as a database WAL does.

Crash-window audit (all safe):

- crash mid-append → torn tail discarded; those rows were never in a
  published snapshot nor acknowledged durable.
- crash after publish, before journal reset → the journal's checkpoint
  version is *older* than the store's newest intact version; the stale
  batches are already folded into the newer snapshot, so replay discards
  them instead of double-applying.
- torn snapshot write during checkpoint → the store quarantines it and
  rolls back; the journal still names the previous version, so its batches
  replay on top of the rolled-back model.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from repro.core.errors import PersistenceError, StreamError
from repro.core.estimator import StreamingEstimator
from repro.fault.plan import mutate_bytes
from repro.obs.metrics import default_metrics
from repro.persist.store import ModelStore, ModelVersion, fsync_path
from repro.stream.batches import normalize_batch

__all__ = ["IngestJournal", "JournalReplay", "JournaledIngest"]

#: Journal file preamble: magic + one format byte + reserved padding.
_FILE_MAGIC = b"RJNL\x01\x00\x00\x00"

#: Per-record header: magic, kind, sequence, payload length, payload CRC-32.
_REC_HEADER = struct.Struct("<4sBQQI")
_REC_MAGIC = b"RJRC"

_KIND_CHECKPOINT = 0
_KIND_ROWS = 1

_ROWS_PREFIX = struct.Struct("<II")  # n_rows, n_dims
_CHECKPOINT_PAYLOAD = struct.Struct("<Q")  # published store version


@dataclass
class JournalReplay:
    """Outcome of reading a journal file back.

    ``checkpoint_version`` is the store version named by the last intact
    checkpoint record (``None`` when the file carries none — empty, foreign,
    or damaged before the first checkpoint); ``batches`` are the row batches
    logged after it, in order and in their original boundaries.
    ``torn_tail`` reports that replay stopped at a truncated or
    CRC-failing record (everything after it is discarded), and
    ``intact_bytes`` is the file offset just past the last intact record —
    the truncation point that makes the file appendable again.
    """

    checkpoint_version: int | None = None
    batches: list[np.ndarray] = field(default_factory=list)
    records: int = 0
    torn_tail: bool = False
    intact_bytes: int = 0

    @property
    def rows(self) -> int:
        return sum(len(batch) for batch in self.batches)


class IngestJournal:
    """Append-only, fsync'd, CRC-framed journal of ingest row batches.

    Every append passes through the ``persist.journal.append`` byte-mutation
    injection point, so deterministic torn-write tests can damage exactly
    the record they target.

    Parameters
    ----------
    path:
        Journal file (created with a magic preamble on first use).
    fsync:
        Fsync after every append (and the directory after a reset).  The
        default honours the durability contract; turning it off trades
        crash-safety for append throughput.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._seq = 0
        self._handle: IO[bytes] | None = None

    # -- file plumbing ----------------------------------------------------

    def _open(self) -> IO[bytes]:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
            if self._handle.tell() == 0:
                self._handle.write(_FILE_MAGIC)
                self._sync(self._handle)
        return self._handle

    def _sync(self, handle: IO[bytes]) -> None:
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "IngestJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- appends ----------------------------------------------------------

    def append_rows(self, rows: np.ndarray) -> int:
        """Durably log one insert batch; returns the record sequence number."""
        batch = np.ascontiguousarray(np.atleast_2d(np.asarray(rows, dtype=float)), dtype="<f8")
        if batch.size == 0:
            return self._seq
        payload = _ROWS_PREFIX.pack(batch.shape[0], batch.shape[1]) + batch.tobytes()
        handle = self._open()
        self._seq += 1
        record = (
            _REC_HEADER.pack(
                _REC_MAGIC, _KIND_ROWS, self._seq, len(payload), zlib.crc32(payload)
            )
            + payload
        )
        handle.write(mutate_bytes("persist.journal.append", record))
        self._sync(handle)
        return self._seq

    def reset(self, version: int) -> None:
        """Atomically truncate the journal to one checkpoint record.

        Called after a successful publish: rows logged before the checkpoint
        are now folded into snapshot ``version`` and must never replay.
        """
        self.close()
        payload = _CHECKPOINT_PAYLOAD.pack(int(version))
        record = (
            _REC_HEADER.pack(_REC_MAGIC, _KIND_CHECKPOINT, 1, len(payload), zlib.crc32(payload))
            + payload
        )
        temp = self.path.with_name(self.path.name + f".reset.{os.getpid()}.tmp")
        with open(temp, "wb") as handle:
            handle.write(_FILE_MAGIC + record)
            self._sync(handle)
        os.replace(temp, self.path)
        if self.fsync:
            fsync_path(self.path.parent)
        self._seq = 1

    def truncate(self, size: int) -> None:
        """Discard every byte past offset ``size`` (torn-tail repair).

        The file is opened in append mode (:meth:`_open`), so garbage left by
        a crash mid-append *must* be cut off before any new record is written
        — otherwise replay stops at the garbage and every later record is
        unreachable.  Fsyncs the shrunken file so the repair is durable.
        """
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(max(int(size), 0))
                self._sync(handle)
        except FileNotFoundError:
            pass

    # -- replay -----------------------------------------------------------

    @classmethod
    def replay(cls, path: str | os.PathLike[str]) -> JournalReplay:
        """Read a journal back, tolerating a torn tail.

        Never raises on damage: a missing file, a foreign preamble or a
        damaged first record simply yields an empty replay (with
        ``torn_tail`` set when bytes had to be discarded), because recovery
        must proceed from the last checkpoint regardless.
        """
        result = JournalReplay()
        try:
            blob = Path(path).read_bytes()
        except FileNotFoundError:
            return result
        if not blob.startswith(_FILE_MAGIC):
            result.torn_tail = bool(blob)
            return result
        offset = len(_FILE_MAGIC)
        result.intact_bytes = offset
        pending: list[np.ndarray] = []
        while offset < len(blob):
            if offset + _REC_HEADER.size > len(blob):
                result.torn_tail = True
                break
            magic, kind, _seq, length, crc = _REC_HEADER.unpack_from(blob, offset)
            if magic != _REC_MAGIC:
                result.torn_tail = True
                break
            start = offset + _REC_HEADER.size
            payload = blob[start : start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                result.torn_tail = True
                break
            offset = start + length
            if kind == _KIND_CHECKPOINT:
                (result.checkpoint_version,) = _CHECKPOINT_PAYLOAD.unpack(payload)
                pending = []
            elif kind == _KIND_ROWS:
                n_rows, n_dims = _ROWS_PREFIX.unpack_from(payload)
                data = np.frombuffer(payload, dtype="<f8", offset=_ROWS_PREFIX.size)
                if data.size != n_rows * n_dims:
                    result.torn_tail = True
                    break
                pending.append(data.reshape(n_rows, n_dims).copy())
            # unknown kinds are skipped (forward compatibility)
            result.records += 1
            result.intact_bytes = offset
        result.batches = pending
        return result


class JournaledIngest:
    """Crash-safe ingest coordinator: journal + streaming model + store.

    Wraps a fitted :class:`~repro.core.estimator.StreamingEstimator`;
    :meth:`insert` journals each batch before the model sees it, and
    :meth:`checkpoint` publishes + truncates the journal.  Call
    :meth:`checkpoint` once right after fitting so the journal has a
    baseline snapshot to replay against.

    Metrics (process-default registry): ``journal.appends``,
    ``journal.rows``, ``journal.checkpoints``, ``journal.recoveries``,
    ``journal.replayed_rows``.
    """

    def __init__(
        self,
        estimator: StreamingEstimator,
        journal: IngestJournal | str | os.PathLike[str],
        store: ModelStore,
        name: str,
    ) -> None:
        self.estimator = estimator
        self.journal = (
            journal if isinstance(journal, IngestJournal) else IngestJournal(journal)
        )
        self.store = store
        self.name = name
        self.last_recovery: dict[str, object] | None = None
        self._metrics = default_metrics()

    def insert(self, rows: np.ndarray) -> None:
        """Durably journal ``rows``, then fold them into the live model.

        The batch is validated first (a wrong width or a non-finite value
        raises :class:`~repro.core.errors.StreamError`), so a rejected batch
        is never journaled and no recovery replays it.
        """
        batch = normalize_batch(rows, len(self.estimator.columns), StreamError)
        if batch is None:
            return
        self.journal.append_rows(batch)
        self.estimator.insert(batch)
        if self._metrics.enabled:
            self._metrics.counter("journal.appends").inc()
            self._metrics.counter("journal.rows").inc(batch.shape[0])

    def flush(self) -> None:
        self.estimator.flush()

    def checkpoint(self, schema: Mapping[str, object] | None = None) -> ModelVersion:
        """Flush + publish the model, then truncate the journal to it."""
        self.estimator.flush()
        published = self.store.publish(self.name, self.estimator, schema=dict(schema) if schema else None)
        self.journal.reset(published.version)
        self._metrics.counter("journal.checkpoints").inc()
        return published

    def close(self) -> None:
        self.journal.close()

    @classmethod
    def recover(
        cls,
        journal: IngestJournal | str | os.PathLike[str],
        store: ModelStore,
        name: str,
        fsync: bool = True,
    ) -> "JournaledIngest":
        """Rebuild the pre-crash ingest state from disk.

        Loads the newest intact version of ``name`` (quarantine + rollback
        apply), then replays journaled batches according to the checkpoint
        protocol: batches replay only when the journal's checkpoint matches
        or postdates the loaded snapshot (an *older* checkpoint means the
        rows are already folded into a newer snapshot).  The journal's intact
        records are kept — pending rows stay replayable until the next
        :meth:`checkpoint` — but a torn tail is truncated away (fsync'd)
        before the journal accepts new appends, so post-recovery batches are
        logged contiguously after the last intact record.

        The result's ``last_recovery`` dict reports what happened:
        ``loaded_version``, ``checkpoint_version``, ``replayed_batches``,
        ``replayed_rows``, ``torn_tail``, ``stale_journal`` (an
        ahead-of-store checkpoint — the published snapshot it named was
        lost, so replay was best-effort).
        """
        if not isinstance(journal, IngestJournal):
            journal = IngestJournal(journal, fsync=fsync)
        resolved, estimator = store.load_latest(name)
        if not isinstance(estimator, StreamingEstimator):
            raise PersistenceError(
                f"model {name!r} is not a streaming estimator; journal recovery "
                "does not apply"
            )
        replayed = IngestJournal.replay(journal.path)
        if replayed.torn_tail:
            # The journal reopens in append mode, so the garbage tail must be
            # cut off *before* any new insert is logged — otherwise replay
            # stops at the garbage and every post-recovery batch is
            # unreachable (silently lost on the next crash).
            journal.truncate(replayed.intact_bytes)
        checkpoint = replayed.checkpoint_version
        replay_batches = (
            replayed.batches if checkpoint is not None and checkpoint >= resolved.version else []
        )
        replayed_rows = 0
        for batch in replay_batches:
            estimator.insert(batch)
            replayed_rows += len(batch)
        wrapper = cls(estimator, journal, store, name)
        wrapper.journal._seq = replayed.records
        wrapper.last_recovery = {
            "loaded_version": resolved.version,
            "checkpoint_version": checkpoint,
            "replayed_batches": len(replay_batches),
            "replayed_rows": replayed_rows,
            "torn_tail": replayed.torn_tail,
            "stale_journal": bool(checkpoint is not None and checkpoint > resolved.version),
        }
        metrics = default_metrics()
        if metrics.enabled:
            metrics.counter("journal.recoveries").inc()
            metrics.counter("journal.replayed_rows").inc(replayed_rows)
        return wrapper
