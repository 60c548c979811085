"""Batch normalisation shared by every streaming ingestion surface.

Every ``insert(rows)`` in the library — the streaming estimators and the
reservoir samplers — accepts the same inputs: a ``(n, d)`` matrix of finite
values, a single 1-D row, or an empty batch (a no-op, never an error).  This
helper is the single implementation of that contract; the sharded and
journaled front ends apply it before they route or log a batch.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InvalidParameterError

__all__ = ["normalize_batch"]


def normalize_batch(
    rows: np.ndarray,
    dimensions: int,
    error: type[Exception] = InvalidParameterError,
) -> np.ndarray | None:
    """Normalise ``rows`` to a ``(n, dimensions)`` float matrix.

    Empty input returns ``None`` (callers treat it as a no-op); a 1-D row is
    promoted to a one-row batch; anything whose trailing axis does not match
    ``dimensions`` raises ``error`` — including a zero-row 2-D batch, whose
    explicit wrong width is a schema bug worth surfacing immediately.  Only
    width-less empty input (``[]``, ``np.empty(0)``) is the ambiguous empty
    no-op.  A NaN or infinite value also raises ``error``: one such row would
    poison every moment a synopsis keeps, for good.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim >= 2 and rows.shape[-1] != dimensions:
        raise error(
            f"expected rows with {dimensions} attributes, got {rows.shape[-1]}"
        )
    if rows.size == 0:
        return None
    rows = np.atleast_2d(rows)
    if rows.ndim != 2 or rows.shape[1] != dimensions:
        raise error(
            f"expected rows with {dimensions} attributes, got {rows.shape[-1]}"
        )
    if not np.isfinite(rows).all():
        raise error("rows must be finite; got NaN or infinity")
    return rows
