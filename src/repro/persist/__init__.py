"""Model persistence: single-file snapshots and a versioned model store.

Every fitted estimator can be captured as a *snapshot* — a single ``.npz``
file holding the synopsis' numpy arrays plus a JSON header — and snapshots
can be organised into a :class:`~repro.persist.store.ModelStore`: a directory
of named models with monotonically increasing versions, atomic publishes and
a prune policy.  This is the on-disk lifecycle layer that makes a synopsis
built from a million-row table (or a long drift stream) survive the process
that built it, and the substrate the serving layer
(:mod:`repro.serve`) swaps new model versions through.

Snapshot format
---------------

A snapshot is a ``numpy.savez`` archive written without pickle:

* one ``uint8`` entry (:data:`~repro.persist.snapshot.HEADER_KEY`) holding a
  UTF-8 JSON header with the keys ``format`` (integer format version),
  ``estimator`` (registry name), ``config`` (constructor parameters — the
  reconstruction recipe), ``fitted``, ``columns``, ``row_count`` and ``meta``
  (estimator-specific JSON scalars);
* one ``a::<key>`` entry per state array of the estimator (bit-exact float64
  payloads, so a load reproduces ``estimate_batch`` output bitwise).

Every snapshot also carries a content checksum entry
(:data:`~repro.persist.snapshot.CHECKSUM_KEY`, CRC-32 over the header bytes
and every array's dtype/shape/raw bytes): loads verify it and raise the typed
:class:`~repro.core.errors.SnapshotCorruptError` on any mismatch, and
:class:`~repro.persist.store.ModelStore` quarantines corrupt versions
(``*.corrupt``) and rolls back to the newest intact one.  Crash-safe
streaming ingest is provided by :class:`~repro.persist.journal.IngestJournal`
/ :class:`~repro.persist.journal.JournaledIngest` — an append-only, fsync'd
write-ahead journal whose replay reproduces the pre-crash model bitwise.

Format version policy
---------------------

:data:`~repro.persist.snapshot.FORMAT_VERSION` (currently ``1``) is written
into every header.

* The version is bumped only for changes that make old readers misinterpret
  a snapshot (renamed array keys, changed semantics of a header field).
  Additive changes — new optional ``meta`` keys, new estimators — do **not**
  bump it.
* Readers accept every version from 1 up to their own ``FORMAT_VERSION`` and
  must tolerate unknown additive keys; snapshots from a *newer* format raise
  :class:`~repro.core.errors.PersistenceError` instead of guessing.
* Per-estimator state layouts are owned by the estimators themselves (the
  ``_state`` / ``_restore_state`` hook pair); an estimator changing its
  layout incompatibly must either keep a translation path in
  ``_restore_state`` or trigger a format bump.
"""

from repro.persist.journal import IngestJournal, JournaledIngest, JournalReplay
from repro.persist.snapshot import (
    FORMAT_VERSION,
    load_estimator,
    read_snapshot_header,
    save_estimator,
    verify_snapshot,
)
from repro.persist.store import ModelStore, ModelVersion

__all__ = [
    "FORMAT_VERSION",
    "save_estimator",
    "load_estimator",
    "read_snapshot_header",
    "verify_snapshot",
    "ModelStore",
    "ModelVersion",
    "IngestJournal",
    "JournaledIngest",
    "JournalReplay",
]
