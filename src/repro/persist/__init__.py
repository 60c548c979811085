"""Model persistence: single-file snapshots and a versioned model store.

Every fitted estimator can be captured as a *snapshot* — a single file
holding the synopsis' numpy arrays plus a JSON header — and snapshots can be
organised into a :class:`~repro.persist.store.ModelStore`: a directory of
named models with monotonically increasing versions, atomic publishes and a
prune policy.  This is the on-disk lifecycle layer that makes a synopsis
built from a million-row table (or a long drift stream) survive the process
that built it, and the substrate the serving layer (:mod:`repro.serve`)
swaps new model versions through.

Snapshot format
---------------

A format-2 snapshot (:mod:`repro.persist.snapshot`) is one flat file,
written without pickle:

* an 8-byte preamble: the magic ``RSNP`` and the JSON header's length;
* a UTF-8 JSON header with the keys ``format`` (integer format version),
  ``estimator`` (registry name), ``config`` (constructor parameters — the
  reconstruction recipe), ``fitted``, ``columns``, ``row_count``, ``meta``
  (estimator-specific JSON scalars), the optional ``schema`` and ``arrays``,
  which maps each state array's key to its dtype, shape and payload offset;
* the payload: every state array's raw bytes at an 8-byte-aligned offset
  (bit-exact float64, so a load reproduces ``estimate_batch`` output
  bitwise);
* a CRC-32 of every byte before it.

A reader reads the file once and checks the CRC before any other field, so
torn writes, truncation and bit rot raise the typed
:class:`~repro.core.errors.SnapshotCorruptError`, and
:class:`~repro.persist.store.ModelStore` quarantines corrupt versions
(``*.corrupt``) and rolls back to the newest intact one.  Crash-safe
streaming ingest is provided by :class:`~repro.persist.journal.IngestJournal`
/ :class:`~repro.persist.journal.JournaledIngest` — an append-only, fsync'd
write-ahead journal whose replay reproduces the pre-crash model bitwise.

Format version policy
---------------------

:data:`~repro.persist.snapshot.FORMAT_VERSION` (currently ``2``) is written
into every header.

* The version is bumped only for changes that make old readers misinterpret
  a snapshot (renamed array keys, changed semantics of a header field).
  Additive changes — new optional ``meta`` keys, new estimators — do **not**
  bump it.
* Readers read their own ``FORMAT_VERSION`` only and must tolerate unknown
  additive keys.  A later format keeps the preamble and the trailing CRC,
  so a reader reaches its marker and raises
  :class:`~repro.core.errors.PersistenceError` instead of guessing (and the
  store does not quarantine it).  Format 1, the numpy zip archive of
  earlier builds, no longer loads: it fails the CRC check.
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
