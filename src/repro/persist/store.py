"""Versioned on-disk model store.

A :class:`ModelStore` is a directory of named models.  Each publish writes an
immutable snapshot file ``<root>/<name>/v<version>.snap`` with a monotonically
increasing version number, then flips the model's ``LATEST`` pointer — the
snapshot via write-to-temp + fsync + ``os.link``, the pointer via
write-to-temp + ``os.replace`` followed by a model-directory fsync — so
readers never observe a torn file, the pointer flip is the atomic
publication point, and a published version survives power loss.  A prune
policy bounds how many historical versions a model keeps.

This is the catalog-facing persistence layer: ``Catalog.save(store)``
publishes every attached synopsis and ``Catalog.restore(store)`` re-attaches
the latest published versions without refitting, and the serving layer
(:mod:`repro.serve`) loads successive versions from a store to swap them in
behind a running server.
"""

from __future__ import annotations

import logging
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

try:  # POSIX advisory locking for the LATEST pointer flip
    from fcntl import LOCK_EX as _LOCK_EX, flock as _flock
except ImportError:  # pragma: no cover - non-POSIX fallback: in-process only
    _flock = None
    _LOCK_EX = 0

from repro.core.errors import PersistenceError, SnapshotCorruptError
from repro.fault.plan import inject, mutate_bytes
from repro.obs.metrics import default_metrics
from repro.core.estimator import SelectivityEstimator
from repro.persist.snapshot import (
    load_estimator,
    read_snapshot_header,
    save_estimator,
    verify_snapshot,
)

__all__ = ["ModelStore", "ModelVersion", "fsync_path"]

logger = logging.getLogger("repro.persist")

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_LATEST = "LATEST"

#: The one definition of a version's file name (format-2 snapshots):
#: :func:`_version_file` builds it and ``_VERSION_PATTERN`` recognises it.
_VERSION_PATTERN = re.compile(r"^v(\d{8})\.snap$")


def _version_file(version: int) -> str:
    return f"v{version:08d}.snap"


#: Suffix appended to a snapshot file when ``load`` quarantines it; the
#: resulting name no longer matches the version pattern, so scans, pruning
#: and pointer resolution all skip it (kept on disk for forensics).
_QUARANTINE_SUFFIX = ".corrupt"

#: Write attempts per publish when read-back verification is on.
_PUBLISH_ATTEMPTS = 4


def fsync_path(path: str | os.PathLike[str]) -> None:
    """Flush the file or directory at ``path`` to stable storage.

    Syncing a directory makes the entries linked, renamed or created in it
    durable; a rename alone can be lost to a power cut until then.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class ModelVersion:
    """Handle to one published snapshot: model name, version and file path."""

    name: str
    version: int
    path: Path


class ModelStore:
    """Directory-backed store of named, versioned estimator snapshots.

    Parameters
    ----------
    root:
        Store directory (created on first use).
    keep_versions:
        Default prune policy applied after every publish: retain at most this
        many newest versions per model.  ``None`` keeps everything.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`.  When enabled,
        every :meth:`publish` records its end-to-end latency
        (``persist.publish_seconds``, the write-temp + claim + pointer-flip
        span) and bumps ``persist.publishes``.  Recovery events bump
        ``persist.publish_retries`` (a publish temp file failed read-back
        verification and was rewritten), ``persist.quarantined`` (a corrupt
        snapshot was renamed aside) and ``persist.rollbacks`` (a latest-load
        fell back to an older intact version).  Defaults to the
        process-default registry (no-op unless installed).
    verify_publish:
        Read back and checksum-verify every publish's temp file before it is
        claimed into a version slot, rewriting on mismatch (up to 4
        attempts).  This catches write-path corruption the OS reports
        nothing about — but a read-back is served from the page cache, so
        corruption that lands *after* the verify (power-loss torn writes,
        bit rot) is still possible; :meth:`load` quarantines such versions
        and rolls back to the newest intact one.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        keep_versions: int | None = None,
        metrics=None,
        verify_publish: bool = True,
    ):
        if keep_versions is not None and keep_versions < 1:
            raise PersistenceError("keep_versions must be at least 1")
        self.root = Path(root)
        self.keep_versions = keep_versions
        self.metrics = metrics if metrics is not None else default_metrics()
        self.verify_publish = verify_publish
        self._lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)

    # -- naming / layout -----------------------------------------------------
    def _model_dir(self, name: str) -> Path:
        if not _NAME_PATTERN.match(name):
            raise PersistenceError(
                f"invalid model name {name!r}: use letters, digits, '.', '_' or '-'"
            )
        return self.root / name

    def _version_path(self, name: str, version: int) -> Path:
        return self._model_dir(name) / _version_file(version)

    def model_names(self) -> list[str]:
        """Names of all models with at least one published version."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self._scan_versions(entry)
        )

    @staticmethod
    def _scan_versions(model_dir: Path) -> list[int]:
        """Version numbers of the snapshot *files* in a model directory.

        Foreign entries are ignored: files that do not match the version
        pattern, and — crucially — directories even when their name does
        (a backup folder, another tool's output); treating a directory as a
        snapshot would corrupt ``LATEST`` resolution and make ``prune``
        attempt to unlink it.
        """
        if not model_dir.is_dir():
            return []
        found = []
        for entry in model_dir.iterdir():
            match = _VERSION_PATTERN.match(entry.name)
            if match and entry.is_file():
                found.append(int(match.group(1)))
        return sorted(found)

    def versions(self, name: str) -> list[int]:
        """All published versions of ``name``, oldest first."""
        return self._scan_versions(self._model_dir(name))

    def latest_version(self, name: str) -> int | None:
        """Version the ``LATEST`` pointer designates (``None`` if unpublished).

        Falls back to the newest on-disk snapshot when the pointer is
        missing, empty, garbage, or names a version that no longer exists —
        the snapshot files, not the pointer, are ground truth — and then
        *repairs* the pointer so the next reader skips the scan.  The repair
        re-validates the pointer under the pointer flock (a concurrent
        publisher may have flipped it to a newer valid version meanwhile,
        which always wins) and is skipped on a read-only store, where the
        scan result is served without rewriting anything.
        """
        model_dir = self._model_dir(name)
        pointer = model_dir / _LATEST
        try:
            version = int(pointer.read_text().strip())
            if self._version_path(name, version).is_file():
                return version
        except (OSError, ValueError):
            pass
        versions = self._scan_versions(model_dir)
        if not versions:
            return None
        if pointer.exists():
            logger.warning(
                "repairing unusable LATEST pointer for model %r -> v%d",
                name,
                versions[-1],
            )
        with self._lock:
            try:
                self._write_pointer(model_dir, versions[-1], repair=True)
            except OSError:
                # Read-only store: keep resolving via the scan.
                return versions[-1]
        # Re-read after the repair: a concurrent publisher may have flipped
        # the pointer to a newer version, which _write_pointer (correctly)
        # refused to overwrite.
        try:
            version = int(pointer.read_text().strip())
            if self._version_path(name, version).is_file():
                return version
        except (OSError, ValueError):
            pass
        return versions[-1]

    # -- publish / load --------------------------------------------------------
    def publish(
        self,
        name: str,
        estimator: SelectivityEstimator,
        keep_versions: int | None = None,
        schema: dict | None = None,
    ) -> ModelVersion:
        """Persist ``estimator`` as the next version of model ``name``.

        ``schema`` (a ``TableSchema.to_json()`` payload) is embedded in the
        snapshot header so dictionary-encoded columns travel with the model;
        it is surfaced again by :meth:`describe`.

        The snapshot is written to a temporary file in the model directory,
        fsynced, and then *claimed* into its version slot with ``os.link``,
        which is atomic and fails if the slot already exists — so concurrent
        publishers (threads or separate processes) can never overwrite each
        other's snapshot; the loser simply takes the next version number.
        The ``LATEST`` pointer is flipped via write-to-temp + ``os.replace``
        afterwards and the model directory fsynced, so a crash mid-publish
        leaves the previous version intact, readers never see a partial
        file, and a returned version survives power loss.  With
        ``verify_publish`` (the default) the temp file is read back and
        checksum-verified before the claim; a failed verification rewrites
        it, up to 4 attempts, then raises
        :class:`~repro.core.errors.SnapshotCorruptError` rather than ever
        claiming a corrupt file.
        """
        publish_start = perf_counter() if self.metrics.enabled else 0.0
        model_dir = self._model_dir(name)
        model_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            versions = self._scan_versions(model_dir)
            version = (versions[-1] if versions else 0) + 1
            temp_path = model_dir / f".publish.{os.getpid()}.{id(estimator):x}.tmp"
            try:
                for attempt in range(_PUBLISH_ATTEMPTS):
                    save_estimator(
                        estimator,
                        temp_path,
                        schema=schema,
                        fault_point="persist.publish.write",
                    )
                    if not self.verify_publish:
                        break
                    try:
                        verify_snapshot(temp_path)
                        break
                    except SnapshotCorruptError:
                        temp_path.unlink(missing_ok=True)
                        self.metrics.counter("persist.publish_retries").inc()
                        logger.warning(
                            "publish of model %r v%d failed read-back "
                            "verification (attempt %d/%d)",
                            name,
                            version,
                            attempt + 1,
                            _PUBLISH_ATTEMPTS,
                        )
                        if attempt == _PUBLISH_ATTEMPTS - 1:
                            raise
                fsync_path(temp_path)
                while True:
                    final_path = self._version_path(name, version)
                    try:
                        os.link(temp_path, final_path)
                        break
                    except FileExistsError:
                        version += 1  # lost a cross-process race: take the next slot
                    except OSError:
                        # Filesystem without hard links: fall back to a plain
                        # rename (still atomic, but last-writer-wins on a
                        # cross-process version collision).
                        os.replace(temp_path, final_path)
                        break
            finally:
                temp_path.unlink(missing_ok=True)
            # The pointer flip below is the commit point.  A crash in this
            # window leaves an orphaned (claimed but never announced)
            # version slot: readers keep serving the previous version and
            # the next publish claims the slot after the orphan.
            inject("persist.publish.crash")
            self._write_pointer(model_dir, version)
            fsync_path(model_dir)
            keep = keep_versions if keep_versions is not None else self.keep_versions
            if keep is not None:
                self._prune_locked(name, keep)
        if self.metrics.enabled:
            self.metrics.histogram("persist.publish_seconds").record(
                perf_counter() - publish_start
            )
            self.metrics.counter("persist.publishes").inc()
        return ModelVersion(name, version, final_path)

    @staticmethod
    def _write_pointer(model_dir: Path, version: int, repair: bool = False) -> None:
        pointer = model_dir / _LATEST
        # The read-guard + replace below is not atomic, so the whole flip is
        # serialised through an advisory file lock — it covers independent
        # store handles and separate processes, which the in-process lock
        # cannot.  (Released when the descriptor closes.)
        with open(model_dir / f".{_LATEST}.lock", "w") as lock_file:
            if _flock is not None:
                _flock(lock_file, _LOCK_EX)
            try:
                current = int(pointer.read_text().strip())
            except (OSError, ValueError):
                current = None
            if current is not None and current >= version:
                # Never move the pointer backwards (a slower concurrent
                # publisher finishing late must not shadow a newer version).
                # ``repair`` (pointer repair / corruption rollback) may
                # regress only when the pointed-to snapshot is actually gone
                # (quarantined or deleted): the check runs under the flock,
                # so a concurrent publisher that flipped the pointer to a
                # newer intact version since the caller scanned always wins.
                pointed = model_dir / _version_file(current)
                if not repair or pointed.is_file():
                    return
            temp_pointer = model_dir / f".{_LATEST}.{os.getpid()}.{threading.get_ident()}.tmp"
            temp_pointer.write_bytes(
                mutate_bytes("persist.pointer.write", f"{version}\n".encode())
            )
            os.replace(temp_pointer, pointer)

    def load(self, name: str, version: int | None = None) -> SelectivityEstimator:
        """Load one published version of ``name`` (default: the latest).

        Loading the latest version is corruption-tolerant: a version that
        fails checksum verification is quarantined (renamed aside) and the
        load *rolls back* to the newest intact version, repairing the
        ``LATEST`` pointer — a corrupt snapshot is never served.  Loading an
        explicitly requested version raises
        :class:`~repro.core.errors.SnapshotCorruptError` without touching
        the file (the caller targeted those exact bytes).
        """
        if version is not None:
            return load_estimator(self._resolve(name, version).path)
        return self.load_latest(name)[1]

    def load_latest(self, name: str) -> tuple[ModelVersion, SelectivityEstimator]:
        """Load the newest *intact* version of ``name`` with its handle.

        Corrupt versions encountered on the way are quarantined (renamed
        with a ``.corrupt`` suffix, bumping ``persist.quarantined``) and the
        search rolls back to older versions (``persist.rollbacks``); the
        ``LATEST`` pointer is repaired to the version actually served.
        Raises :class:`~repro.core.errors.PersistenceError` when no intact
        version remains.
        """
        rolled_back = False
        tried: set[int] = set()
        last_error: SnapshotCorruptError | None = None
        while True:
            try:
                resolved = self._resolve(name, None)
            except PersistenceError:
                if last_error is not None:
                    raise PersistenceError(
                        f"model {name!r} has no intact versions "
                        f"(all quarantined; last failure: {last_error})"
                    ) from last_error
                raise
            if resolved.version in tried:
                # Quarantine could not move the file aside (read-only
                # store); re-resolving would spin on the same version.
                assert last_error is not None
                raise last_error
            tried.add(resolved.version)
            try:
                estimator = load_estimator(resolved.path)
            except SnapshotCorruptError as error:
                self._quarantine(resolved)
                last_error = error
                rolled_back = True
                continue
            if rolled_back:
                self.metrics.counter("persist.rollbacks").inc()
                logger.warning(
                    "model %r rolled back to intact version %d", name, resolved.version
                )
                with self._lock:
                    try:
                        self._write_pointer(
                            self._model_dir(name), resolved.version, repair=True
                        )
                    except OSError:
                        # Read-only store: quarantine already degraded to
                        # best-effort; keep serving the intact version found.
                        pass
            return resolved, estimator

    def _quarantine(self, resolved: ModelVersion) -> Path:
        """Rename a corrupt snapshot aside so scans and loads skip it."""
        corrupt_path = resolved.path.with_name(resolved.path.name + _QUARANTINE_SUFFIX)
        try:
            os.replace(resolved.path, corrupt_path)
        except OSError:
            # Renaming is best-effort (read-only store, concurrent
            # quarantine); resolution order still skips the version once the
            # caller records the failure, and re-reading it just fails again.
            pass
        self.metrics.counter("persist.quarantined").inc()
        logger.warning(
            "quarantined corrupt snapshot %s (model %r version %d)",
            corrupt_path,
            resolved.name,
            resolved.version,
        )
        return corrupt_path

    def describe(self, name: str, version: int | None = None) -> dict:
        """Snapshot header of a published version (verified; no model built)."""
        return read_snapshot_header(self._resolve(name, version).path)

    def _resolve(self, name: str, version: int | None) -> ModelVersion:
        if version is None:
            version = self.latest_version(name)
            if version is None:
                raise PersistenceError(f"model {name!r} has no published versions")
        path = self._version_path(name, version)
        if not path.is_file():
            raise PersistenceError(f"model {name!r} has no version {version}")
        return ModelVersion(name, int(version), path)

    # -- retention -------------------------------------------------------------
    def prune(self, name: str, keep_versions: int) -> list[int]:
        """Delete all but the newest ``keep_versions`` versions of ``name``.

        Returns the removed version numbers.  The latest version is never
        removed.
        """
        with self._lock:
            return self._prune_locked(name, keep_versions)

    def _prune_locked(self, name: str, keep_versions: int) -> list[int]:
        if keep_versions < 1:
            raise PersistenceError("keep_versions must be at least 1")
        versions = self.versions(name)
        doomed = versions[:-keep_versions] if len(versions) > keep_versions else []
        removed = []
        for version in doomed:
            path = self._version_path(name, version)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                # A foreign entry squatting on a version name (e.g. a
                # directory) is not ours to delete; skip it rather than
                # failing the publish that triggered the prune.
                continue
            removed.append(version)
        return removed
