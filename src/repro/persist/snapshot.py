"""Single-file ``.npz`` snapshots of fitted estimators.

The serialisation split is deliberate: estimators describe their state as
numpy arrays plus JSON scalars (``SelectivityEstimator.state_dict``), and
this module owns the on-disk envelope — a pickle-free ``savez`` archive with
a versioned JSON header.  See :mod:`repro.persist` for the format and its
versioning policy.

Integrity: every snapshot carries a CRC-32 envelope checksum (the
``__repro_checksum__`` entry) computed over the header bytes and every state
array's key, dtype, shape and raw bytes.  Loaders verify it, so torn writes,
truncation and bit rot surface as a typed
:class:`~repro.core.errors.SnapshotCorruptError` instead of raw
``numpy``/``zipfile`` exceptions — and never as silently wrong estimates.
The checksum entry is additive (readers that predate it ignore it, loaders
accept legacy snapshots without one), so the format version is unchanged.
"""

from __future__ import annotations

import errno
import io
import json
import os
import struct
import zipfile
import zlib
from pathlib import Path
from typing import IO, Any, Mapping, NoReturn

import numpy as np

from repro.core.errors import PersistenceError, SnapshotCorruptError
from repro.core.estimator import SelectivityEstimator, estimator_from_config
from repro.fault.plan import mutate_bytes

__all__ = [
    "CHECKSUM_KEY",
    "FORMAT_VERSION",
    "HEADER_KEY",
    "save_estimator",
    "load_estimator",
    "read_snapshot_header",
    "verify_snapshot",
]

#: On-disk snapshot format version (see :mod:`repro.persist` for the policy).
FORMAT_VERSION = 1

#: Archive entry holding the UTF-8 JSON header.
HEADER_KEY = "__repro_header__"

#: Archive entry holding the CRC-32 envelope checksum (additive; optional).
CHECKSUM_KEY = "__repro_checksum__"

#: Prefix namespacing estimator state arrays inside the archive.
_ARRAY_PREFIX = "a::"

#: Exceptions that mean "the bytes on disk are not a readable archive".
#: ``RuntimeError`` covers ``zipfile`` refusing a damaged directory entry:
#: ``NotImplementedError`` (a subclass) for an unsupported version,
#: compression method or flag bit, plain ``RuntimeError`` for the encryption
#: flag.  Deliberately excludes ``OSError``: a transient I/O failure (EIO,
#: EACCES, too many open files) says nothing about the bytes, and classifying
#: it as corruption would quarantine a perfectly intact snapshot — see
#: :func:`_reraise_corrupt`.
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    zipfile.LargeZipFile,
    ValueError,
    KeyError,
    EOFError,
    RuntimeError,
    zlib.error,
    struct.error,
)


def _reraise_corrupt(source: str, error: Exception) -> NoReturn:
    """Re-raise ``error`` as :class:`SnapshotCorruptError` — or verbatim.

    An ``OSError`` carrying an ``errno`` is the operating system reporting an
    I/O / permission / resource failure, not evidence that the archive bytes
    are damaged; it propagates unchanged so callers do not quarantine an
    intact file.  ``EINVAL`` is the exception: ``zipfile`` seeking to a
    negative offset derived from a damaged directory record fails with it.
    Errno-less ``OSError`` (raised by parsers for unreadable data) and every
    :data:`_CORRUPTION_ERRORS` member become the typed corruption error.
    """
    if isinstance(error, OSError) and error.errno not in (None, errno.EINVAL):
        raise error
    raise SnapshotCorruptError(
        source, f"unreadable archive ({error})", version=_version_of(source)
    ) from error


def _json_default(value: Any) -> Any:
    """Fold numpy scalars/arrays that leak into headers back into JSON types."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"snapshot header value {value!r} is not JSON-serialisable")


def _compute_checksum(header_bytes: bytes, arrays: Mapping[str, np.ndarray]) -> int:
    """CRC-32 over the envelope: header bytes + every array's identity.

    Keys are folded in sorted order with each array's dtype and shape, so a
    flip that moves bytes between arrays (or truncates one) changes the sum
    even when the concatenated payload would not.
    """
    crc = zlib.crc32(header_bytes)
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        crc = zlib.crc32(key.encode("utf-8"), crc)
        crc = zlib.crc32(value.dtype.str.encode("utf-8"), crc)
        crc = zlib.crc32(repr(value.shape).encode("utf-8"), crc)
        crc = zlib.crc32(value.tobytes(), crc)
    return crc & 0xFFFFFFFF


def save_estimator(
    estimator: SelectivityEstimator,
    path: str | os.PathLike[str] | IO[bytes],
    schema: Mapping[str, Any] | None = None,
    fault_point: str = "persist.snapshot.write",
) -> None:
    """Write ``estimator`` as a single snapshot file at ``path``.

    The file is written through ``numpy.savez`` without pickle; the
    round-trip via :func:`load_estimator` reproduces ``estimate_batch``
    output bitwise.  ``schema`` (a ``TableSchema.to_json()`` payload, its own
    ``schema_version`` inside) rides along in the header so dictionary-encoded
    columns travel with the synopsis they were fitted on; readers that
    predate it ignore the extra key, so the snapshot format version is
    unchanged.  Parent directories are created.  (Writing is *not* atomic —
    the :class:`~repro.persist.store.ModelStore` layers atomic
    write-then-rename publishing on top.)

    ``fault_point`` names the byte-mutation injection point the finished
    archive passes through before it reaches disk (inert unless a
    :class:`~repro.fault.FaultPlan` is armed); the store's publish path
    overrides it so torn *publishes* can be injected independently of plain
    saves.
    """
    state = estimator.state_dict()
    arrays = state.pop("arrays")
    header = {"format": FORMAT_VERSION, **state}
    if schema is not None:
        header["schema"] = dict(schema)
    encoded_bytes = json.dumps(header, default=_json_default).encode("utf-8")
    encoded = np.frombuffer(encoded_bytes, dtype=np.uint8)
    payload: dict[str, np.ndarray] = {HEADER_KEY: encoded}
    for key, value in arrays.items():
        payload[_ARRAY_PREFIX + key] = np.asarray(value)
    checksum = _compute_checksum(
        encoded_bytes, {k: v for k, v in payload.items() if k != HEADER_KEY}
    )
    payload[CHECKSUM_KEY] = np.array([checksum], dtype=np.uint64)
    # Build the archive in memory so the byte-mutation hook sees the exact
    # bytes headed for disk (savez appends ".npz" to bare string paths; an
    # in-memory build then a plain write preserves the requested name).
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    raw = mutate_bytes(fault_point, buffer.getvalue())
    if hasattr(path, "write"):
        path.write(raw)
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "wb") as handle:
        handle.write(raw)


def _version_of(source: str) -> int | None:
    """Best-effort store version number parsed from a snapshot filename."""
    stem = Path(source).name
    if stem.startswith("v") and stem.endswith(".npz"):
        digits = stem[1:-4]
        if digits.isdigit():
            return int(digits)
    return None


def _parse_header(data: Mapping[str, np.ndarray], source: str) -> dict[str, Any]:
    if HEADER_KEY not in data:
        raise PersistenceError(f"{source} is not an estimator snapshot (missing header)")
    try:
        header = json.loads(bytes(np.asarray(data[HEADER_KEY])).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptError(
            source, "corrupt snapshot header", version=_version_of(source)
        ) from error
    version = header.get("format")
    if not isinstance(version, int) or version < 1:
        raise PersistenceError(f"{source} has an invalid snapshot format marker")
    if version > FORMAT_VERSION:
        raise PersistenceError(
            f"{source} uses snapshot format {version}, but this build reads "
            f"only up to format {FORMAT_VERSION}"
        )
    return header


def read_snapshot_header(path: str | os.PathLike[str] | IO[bytes]) -> dict[str, Any]:
    """Read and validate just the JSON header of a snapshot (cheap metadata).

    Does not verify the envelope checksum (that requires reading every
    array — use :func:`verify_snapshot` or :func:`load_estimator`), but a
    structurally damaged archive still raises
    :class:`~repro.core.errors.SnapshotCorruptError`.
    """
    source = str(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            return _parse_header(data, source)
    except FileNotFoundError:
        raise
    except _CORRUPTION_ERRORS + (OSError,) as error:
        _reraise_corrupt(source, error)


def _read_snapshot(
    path: str | os.PathLike[str] | IO[bytes],
) -> tuple[dict[str, Any], dict[str, np.ndarray], bool]:
    """Read, structurally validate and checksum-verify a snapshot archive.

    Returns ``(header, prefixed arrays, had_checksum)``; raises
    :class:`~repro.core.errors.SnapshotCorruptError` on any damage.
    """
    source = str(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            header = _parse_header(data, source)
            header_bytes = bytes(np.asarray(data[HEADER_KEY]))
            arrays = {
                key: np.array(data[key])
                for key in data.files
                if key.startswith(_ARRAY_PREFIX)
            }
            stored = (
                int(np.asarray(data[CHECKSUM_KEY]).ravel()[0])
                if CHECKSUM_KEY in data.files
                else None
            )
    except FileNotFoundError:
        raise
    except _CORRUPTION_ERRORS + (OSError,) as error:
        _reraise_corrupt(source, error)
    if stored is not None:
        actual = _compute_checksum(header_bytes, arrays)
        if actual != stored:
            raise SnapshotCorruptError(
                source,
                f"envelope checksum mismatch (stored {stored:#010x}, "
                f"computed {actual:#010x})",
                version=_version_of(source),
            )
    return header, arrays, stored is not None


def verify_snapshot(path: str | os.PathLike[str] | IO[bytes]) -> bool:
    """Fully read ``path`` and verify its envelope checksum.

    Returns ``True`` when a checksum was present and matched, ``False`` for
    an intact legacy snapshot written before checksums existed.  Raises
    :class:`~repro.core.errors.SnapshotCorruptError` on any damage.
    """
    return _read_snapshot(path)[2]


def load_estimator(path: str | os.PathLike[str] | IO[bytes]) -> SelectivityEstimator:
    """Rebuild the estimator persisted at ``path``.

    The estimator is constructed from the header's registry name and config
    (via :func:`~repro.core.estimator.estimator_from_config`) and its state
    restored from the archived arrays.  The envelope checksum is verified
    first (when present); damage raises
    :class:`~repro.core.errors.SnapshotCorruptError`.
    """
    header, prefixed, _ = _read_snapshot(path)
    arrays = {key[len(_ARRAY_PREFIX):]: value for key, value in prefixed.items()}
    estimator = estimator_from_config(
        {"name": header["estimator"], **header.get("config", {})}
    )
    try:
        estimator.load_state({**header, "arrays": arrays})
    except KeyError as error:
        # A damaged directory length field can hide the trailing members —
        # the checksum among them — so the archive reads like an
        # unchecksummed legacy snapshot that lacks state arrays.
        source = str(path)
        raise SnapshotCorruptError(
            source, f"missing state {error}", version=_version_of(source)
        ) from error
    return estimator
