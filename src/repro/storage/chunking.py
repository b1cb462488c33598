"""Cost-balanced chunking helpers for memory-bounded passes.

``balanced_chunks`` follows the shape of pyscf's ``balance_partition``:
instead of cutting ``ceil(n / max_rows)`` chunks of ``max_rows`` with a
ragged remainder (a 1-row tail chunk wastes a whole pass), it spreads the
rows over the minimal number of chunks in near-equal shares, so every
pass over the data does comparable work.  ``take_rows`` gathers rows, or
their leading columns, from a store without copying it whole.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def balanced_chunks(total: int, max_rows: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into near-equal chunks of at most ``max_rows``.

    Returns ``[(start, stop), ...]`` covering ``[0, total)`` exactly; the
    chunk sizes differ by at most one row.
    """
    total = int(total)
    max_rows = int(max_rows)
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    if total == 0:
        return []
    num_chunks = -(-total // max_rows)  # ceil
    bounds = np.linspace(0, total, num_chunks + 1).round().astype(np.int64)
    return [
        (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


def rows_in_budget(budget_bytes: int, dim: int, itemsize: int = 8) -> int:
    """How many ``(dim,)`` rows of ``itemsize`` bytes fit in ``budget_bytes``
    (at least 1, so a tiny budget degrades to row-at-a-time passes)."""
    return max(1, int(budget_bytes) // max(1, int(dim) * int(itemsize)))


#: Bytes of the block buffer :func:`take_rows` gathers narrowed rows through.
TAKE_BLOCK_BYTES = 4 << 20


def take_rows(
    source: np.ndarray, rows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Copy ``source[rows, :w]`` into ``out``, ``w = out.shape[1]``; returns it.

    A full-width ``out`` is filled by one ``np.take`` straight into it.
    ``np.take`` copies a column-sliced (non-contiguous) source whole
    before it gathers, so a narrower ``out`` (the raw coordinates of
    augmented rows) is filled a block of whole rows at a time, through
    one buffer of at most :data:`TAKE_BLOCK_BYTES`.  ``mode="clip"``
    skips take's defensive copy of ``out``; every row must be in range.
    """
    rows = np.asarray(rows, dtype=np.int64)
    width = out.shape[1]
    if width == source.shape[1]:
        return np.take(source, rows, axis=0, out=out, mode="clip")
    step = rows_in_budget(
        TAKE_BLOCK_BYTES, source.shape[1], source.dtype.itemsize
    )
    block = np.empty((min(step, rows.size), source.shape[1]), source.dtype)
    for lo in range(0, rows.size, step):
        part = block[: min(step, rows.size - lo)]
        np.take(source, rows[lo: lo + step], axis=0, out=part, mode="clip")
        out[lo: lo + part.shape[0]] = part[:, :width]
    return out
