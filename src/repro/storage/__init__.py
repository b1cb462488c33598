"""Pluggable point-array storage: in-RAM (float64/float32) and mmap backends.

See :mod:`repro.storage.base` for the :class:`ArrayStore` protocol and the
declarative :class:`StorageSpec` every index accepts via its ``storage=``
knob, :mod:`repro.storage.mmap` for the out-of-core backend, and
:mod:`repro.storage.chunking` for the cost-balanced chunk helpers the
memory-bounded build path uses and the row gather (``take_rows``) that
reads stored rows back without copying a store whole.
"""

from repro.storage.base import (
    ArrayStore,
    BACKENDS,
    DTYPES,
    RowWriter,
    StorageSpec,
    combined_storage_header,
)
from repro.storage.chunking import balanced_chunks, rows_in_budget, take_rows
from repro.storage.mmap import (
    SIDECAR_DIRECTORY,
    SIDECAR_SUFFIX,
    MmapStore,
    expected_npy_nbytes,
    sidecar_path,
    verify_sidecar,
)
from repro.storage.npyio import ArrayRowSource, NpyRowReader, as_row_source
from repro.storage.ram import RamStore

__all__ = [
    "ArrayRowSource",
    "ArrayStore",
    "BACKENDS",
    "DTYPES",
    "MmapStore",
    "NpyRowReader",
    "RamStore",
    "RowWriter",
    "SIDECAR_DIRECTORY",
    "SIDECAR_SUFFIX",
    "StorageSpec",
    "as_row_source",
    "balanced_chunks",
    "combined_storage_header",
    "expected_npy_nbytes",
    "rows_in_budget",
    "sidecar_path",
    "take_rows",
    "verify_sidecar",
]
