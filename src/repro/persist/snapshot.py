"""Single-file snapshots of fitted estimators (format 2).

The serialisation split is deliberate: estimators describe their state as
numpy arrays plus JSON scalars (``SelectivityEstimator.state_dict``), and
this module owns the on-disk envelope.  A snapshot file holds, in order:

* an 8-byte preamble: the magic ``RSNP`` and the header length (``<4sI``);
* a UTF-8 JSON header, space-padded so the payload starts 8-byte aligned.
  Besides the estimator envelope it maps each state array's key to
  ``[dtype, shape, offset]``, the offset counted from the payload start;
* the payload: each array's raw C-order bytes at an 8-byte-aligned offset;
* a CRC-32 (``<I``) of every byte before it.

Readers read the file once and check the trailing CRC before any other
field, so torn writes, truncation and bit rot all surface as the typed
:class:`~repro.core.errors.SnapshotCorruptError`, never as a parser error or
silently wrong estimates.  Loaded arrays are writable ``np.frombuffer``
views into the one buffer read.  See :mod:`repro.persist` for the version
policy.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path
from typing import IO, Any, Mapping

import numpy as np

from repro.core.errors import PersistenceError, SnapshotCorruptError
from repro.core.estimator import SelectivityEstimator, estimator_from_config
from repro.fault.plan import mutate_bytes

__all__ = [
    "FORMAT_VERSION",
    "save_estimator",
    "load_estimator",
    "read_snapshot_header",
    "verify_snapshot",
]

#: On-disk snapshot format version (see :mod:`repro.persist` for the policy).
FORMAT_VERSION = 2

#: File preamble: magic + JSON header length.
_PREAMBLE = struct.Struct("<4sI")
_MAGIC = b"RSNP"

#: Trailing CRC-32 of every byte before it.
_CRC = struct.Struct("<I")

#: Alignment of the payload and of every array in it.
_ALIGN = 8


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


def save_estimator(
    estimator: SelectivityEstimator,
    path: str | os.PathLike[str] | IO[bytes],
    schema: Mapping[str, Any] | None = None,
    fault_point: str = "persist.snapshot.write",
) -> None:
    """Write ``estimator`` as a single snapshot file at ``path``.

    The round-trip via :func:`load_estimator` reproduces ``estimate_batch``
    output bitwise.  ``schema`` (a ``TableSchema.to_json()`` payload, its own
    ``schema_version`` inside) rides along in the header so dictionary-encoded
    columns travel with the synopsis they were fitted on.  Parent
    directories are created.  (Writing is *not* atomic — the
    :class:`~repro.persist.store.ModelStore` layers atomic write-then-rename
    publishing on top.)

    ``fault_point`` names the byte-mutation injection point the finished
    file passes through before it reaches disk (inert unless a
    :class:`~repro.fault.FaultPlan` is armed); the store's publish path
    overrides it so torn *publishes* can be injected independently of plain
    saves.
    """
    state = estimator.state_dict()
    arrays = {key: np.asarray(value) for key, value in state.pop("arrays").items()}
    layout: dict[str, list] = {}
    offset = 0
    for key, value in arrays.items():
        layout[key] = [value.dtype.str, list(value.shape), offset]
        offset += value.nbytes + -value.nbytes % _ALIGN
    header = {"format": FORMAT_VERSION, **state, "arrays": layout}
    if schema is not None:
        header["schema"] = dict(schema)
    encoded = json.dumps(header, default=_json_default).encode("utf-8")
    encoded += b" " * (-(_PREAMBLE.size + len(encoded)) % _ALIGN)
    raw = bytearray(_PREAMBLE.pack(_MAGIC, len(encoded)))
    raw += encoded
    for value in arrays.values():
        raw += value.tobytes()
        raw += bytes(-value.nbytes % _ALIGN)
    raw += _CRC.pack(zlib.crc32(raw))
    raw = mutate_bytes(fault_point, raw)
    if hasattr(path, "write"):
        path.write(raw)
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "wb") as handle:
        handle.write(raw)


def _read_snapshot(
    path: str | os.PathLike[str] | IO[bytes],
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Read ``path`` once, verify its CRC, and split it into header + arrays.

    Raises :class:`~repro.core.errors.SnapshotCorruptError` when the file is
    shorter than the framing or its trailing CRC does not match, and a plain
    :class:`~repro.core.errors.PersistenceError` for an intact file that is
    not a format-2 snapshot.  An ``OSError`` from the read propagates
    unchanged: it says nothing about the bytes on disk.
    """
    source = str(path)
    raw = bytearray(path.read() if hasattr(path, "read") else Path(path).read_bytes())
    body = len(raw) - _CRC.size
    if body < _PREAMBLE.size:
        raise SnapshotCorruptError(source, f"truncated to {len(raw)} bytes")
    if zlib.crc32(memoryview(raw)[:body]) != _CRC.unpack_from(raw, body)[0]:
        raise SnapshotCorruptError(source, "checksum mismatch")
    magic, header_size = _PREAMBLE.unpack_from(raw)
    if magic != _MAGIC:
        raise PersistenceError(f"{source} is not an estimator snapshot")
    start = _PREAMBLE.size + header_size
    header = json.loads(raw[_PREAMBLE.size : start])
    version = header.get("format")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"{source} uses snapshot format {version!r}, but this build reads "
            f"only format {FORMAT_VERSION}"
        )
    arrays = {
        key: np.frombuffer(raw, dtype, math.prod(shape), start + offset).reshape(shape)
        for key, (dtype, shape, offset) in header.pop("arrays").items()
    }
    return header, arrays


def read_snapshot_header(path: str | os.PathLike[str] | IO[bytes]) -> dict[str, Any]:
    """Read and validate the JSON header of a snapshot (estimator metadata).

    Goes through the same verified read as :func:`load_estimator`, so damage
    raises :class:`~repro.core.errors.SnapshotCorruptError`; no estimator is
    constructed.
    """
    return _read_snapshot(path)[0]


def verify_snapshot(path: str | os.PathLike[str] | IO[bytes]) -> None:
    """Read ``path`` once and check its CRC, magic and format marker.

    Returns quietly for an intact format-2 snapshot; raises
    :class:`~repro.core.errors.SnapshotCorruptError` on any damage.
    """
    _read_snapshot(path)


def load_estimator(path: str | os.PathLike[str] | IO[bytes]) -> SelectivityEstimator:
    """Rebuild the estimator persisted at ``path``.

    The file is verified first (damage raises
    :class:`~repro.core.errors.SnapshotCorruptError`); the estimator is then
    constructed from the header's registry name and config (via
    :func:`~repro.core.estimator.estimator_from_config`) and its state
    restored from the stored arrays.
    """
    header, arrays = _read_snapshot(path)
    estimator = estimator_from_config(
        {"name": header["estimator"], **header.get("config", {})}
    )
    return estimator.load_state({**header, "arrays": arrays})
