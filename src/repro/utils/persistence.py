"""Versioned on-disk payload format shared by every index's ``save``/``load``.

Every persisted index — the static :class:`~repro.core.index_base.P2HIndex`
subclasses as well as the :class:`~repro.core.dynamic.DynamicP2HIndex` and
:class:`~repro.core.partitioned.PartitionedP2HIndex` composites — is written
as **two pickle frames** in one file:

1. a small *header* dictionary::

       {"format": "repro-index", "format_version": 1,
        "spec": {"kind": "bc_tree", "params": {...}} | None,
        "storage_dtype": "float64" | None,
        "storage": {"backend": "ram" | "mmap", "dtype": ...} | None}

2. the index object itself.

Indexes whose point arrays live in an mmap store additionally write the
``.npy`` files into a ``<path>.arrays/`` *sidecar* directory next to the
payload; the pickle frame then carries only file names, and ``load_index``
re-opens the arrays memory-mapped instead of unpickling them into RAM.
The payload file plus its sidecar directory are one artifact — move or
copy them together.

The envelope buys three things:

* ``repro.api.load_index(path)`` can reconstruct **any** index family
  without knowing the class up front, and can report the declarative
  :class:`~repro.api.IndexSpec` the index was built from (stamped by
  :func:`repro.api.build_index` as a plain ``spec`` dictionary, so loading
  never imports :mod:`repro.api`);
* files written by an incompatible library version fail with a clear
  :class:`ValueError` instead of an attribute error deep inside a search;
* the spec of a saved index (:func:`read_index_spec`) is readable without
  unpickling the index frame — inspecting how a multi-GB index was
  configured costs a few hundred bytes, not the index.

This module is deliberately a leaf (stdlib-only apart from the
numpy-backed :mod:`repro.storage` sidecar hooks, imported lazily) so both
the core layer and the public API layer can share the format without an
import cycle.

The header is additive-only: every key it may carry is registered, with
the format version that introduced it, in ``HEADER_KEY_VERSIONS`` in
:mod:`repro.api.persistence`, and ``repro check`` rule REP501 statically
cross-checks write sites against that table.
"""

from __future__ import annotations

import pickle
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

FORMAT_NAME = "repro-index"
FORMAT_VERSION = 1


def dump_index_payload(
    path,
    index: Any,
    *,
    spec: Optional[Dict] = None,
    storage_dtype: Optional[str] = None,
    storage: Optional[Dict] = None,
    stores: Sequence[Any] = (),
    shards: Optional[Dict] = None,
) -> None:
    """Write ``index`` (plus its optional spec dict) as a versioned payload.

    ``storage_dtype`` records the dtype the index's point arrays are
    stored in; ``storage`` records the full ``{"backend", "dtype"}``
    header of the index's :class:`~repro.storage.StorageSpec` (the fast
    mode's reduced-precision arrays are derived runtime caches and are
    never part of the contract).  Both keys are additive — payloads
    written without them (older files) read back with ``None`` — so the
    format version stays at 1.

    ``stores`` lists every :class:`~repro.storage.base.ArrayStore` backing
    the index (composites pass one per sub-index).  Mmap stores are
    persisted into the ``<path>.arrays/`` sidecar *before* the index is
    pickled, so the pickle frame records the sidecar location.

    ``shards`` records the shard layout of a partitioned composite as
    ``{"count": int, "sizes": [int, ...]}`` — additive like the storage
    keys (absent for single-index payloads and older files), so
    ``describe_index`` and the cluster payload splitter learn the
    partition geometry from the header frame alone.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mapped = [
        store for store in stores if getattr(store, "backend", None) == "mmap"
    ]
    sidecar = _sidecar_for(path)
    if sidecar.exists():
        # Stale sidecar from a previous save at this path: the new payload
        # fully replaces it (matching plain-file overwrite semantics).
        shutil.rmtree(sidecar)
    for number, store in enumerate(mapped):
        store.persist(sidecar, f"store{number}")
    header = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "spec": spec,
        "storage_dtype": storage_dtype,
        "storage": storage,
    }
    if shards is not None:
        # Only partitioned payloads carry the key, keeping every other
        # family's header bytes unchanged.
        header["shards"] = shards
    with path.open("wb") as handle:
        pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.dump(index, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _sidecar_for(path: Path) -> Path:
    """``<path>.arrays`` — the mmap sidecar directory for a payload file.

    Kept in sync with :func:`repro.storage.mmap.sidecar_path` (duplicated
    so reading a ram-backed payload never imports numpy-dependent code).
    """
    return path.with_name(path.name + ".arrays")


class _PayloadUnpickler(pickle.Unpickler):
    """Unpickler that names a ``repro`` class this build does not ship.

    A payload saved by an index family since removed from the library
    refers to a ``repro`` module or class that no longer exists; loading
    it raises a :class:`ValueError` naming the file and the class instead
    of a bare ``ModuleNotFoundError``.  Every other error propagates.
    """

    def __init__(self, handle, path) -> None:
        super().__init__(handle)
        self._path = path

    def find_class(self, module: str, name: str) -> Any:
        try:
            return super().find_class(module, name)
        except (ImportError, AttributeError) as error:
            if module != "repro" and not module.startswith("repro."):
                raise
            raise ValueError(
                f"{self._path} holds a {module}.{name}, which this build "
                "of repro does not ship; rebuild the index from a "
                "registered kind"
            ) from error


def _check_header(path, header: Dict[str, Any]) -> None:
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} was saved with index format version {version}, "
            f"but this build reads version {FORMAT_VERSION}; "
            "re-save the index with the matching library version"
        )


def load_index_payload(path) -> Dict[str, Any]:
    """Read a payload written by :func:`dump_index_payload`.

    Returns ``{"index": obj, "spec": dict | None,
    "storage_dtype": str | None, "storage": dict | None}``.  Legacy files
    holding a raw index pickle (written before the envelope existed) are
    accepted and wrapped with ``spec=None``; payloads from before the
    ``storage_dtype`` / ``storage`` header keys read back with those
    values as ``None``.

    Payloads with an ``.arrays`` sidecar (mmap-backed indexes) unpickle
    with the sidecar bound as the store directory, so the arrays are
    served memory-mapped from the files next to the payload actually
    being read — the pair can be moved or renamed wholesale.

    Raises
    ------
    ValueError
        If the file is a payload written with a different
        ``format_version`` than this build understands, the payload is
        truncated (header frame without an index frame), or it holds a
        ``repro`` class this build does not ship (an index family since
        removed).
    """
    path = Path(path)
    with path.open("rb") as handle:
        obj = _PayloadUnpickler(handle, path).load()
        if isinstance(obj, dict) and obj.get("format") == FORMAT_NAME:
            _check_header(path, obj)
            try:
                index = _load_index_frame(path, handle)
            except EOFError:
                raise ValueError(
                    f"{path} is a {FORMAT_NAME} payload with no index"
                ) from None
            return {
                "index": index,
                "spec": obj.get("spec"),
                "storage_dtype": obj.get("storage_dtype"),
                "storage": obj.get("storage"),
            }
    # Legacy raw pickle (pre-envelope): the object *is* the index.
    return {"index": obj, "spec": None, "storage_dtype": None, "storage": None}


def _load_index_frame(path: Path, handle):
    """Unpickle the index frame, binding any mmap stores to the sidecar."""
    sidecar = _sidecar_for(path)
    if not sidecar.is_dir():
        return _PayloadUnpickler(handle, path).load()
    from repro.storage.mmap import SIDECAR_DIRECTORY

    token = SIDECAR_DIRECTORY.set(str(sidecar))
    try:
        return _PayloadUnpickler(handle, path).load()
    finally:
        SIDECAR_DIRECTORY.reset(token)


def read_index_header(path) -> Optional[Dict[str, Any]]:
    """The full header dict of a payload, without unpickling the index.

    None for legacy raw pickles (which have no header frame, so their
    single frame — the index itself — is unpickled and discarded); raises
    the same :class:`ValueError` as :func:`load_index_payload` for
    incompatible payloads.  Backs :func:`repro.api.describe_index` and the
    single-key readers below.
    """
    with Path(path).open("rb") as handle:
        obj = _PayloadUnpickler(handle, path).load()
    if isinstance(obj, dict) and obj.get("format") == FORMAT_NAME:
        _check_header(path, obj)
        return dict(obj)
    return None


def read_index_spec(path) -> Optional[Dict[str, Any]]:
    """The spec dict from a payload's header, without unpickling the index.

    None for payloads saved without a spec and for legacy raw pickles.
    """
    header = read_index_header(path)
    return None if header is None else header.get("spec")


def read_storage_dtype(path) -> Optional[str]:
    """The ``storage_dtype`` header key, without unpickling the index.

    None for payloads written before the key existed and for legacy raw
    pickles.
    """
    header = read_index_header(path)
    return None if header is None else header.get("storage_dtype")


def read_storage_header(path) -> Optional[Dict[str, Any]]:
    """The ``storage`` header key, without unpickling the index.

    ``{"backend": ..., "dtype": ...}`` for payloads written by the
    storage-layer library; None for older payloads and legacy raw pickles.
    """
    header = read_index_header(path)
    return None if header is None else header.get("storage")


def load_typed_index(path, cls):
    """Load a payload and check the index is a ``cls`` instance.

    The shared body of every family's ``load`` classmethod; raises
    :class:`TypeError` naming both the expected and the stored class.
    """
    obj = load_index_payload(path)["index"]
    if not isinstance(obj, cls):
        raise TypeError(
            f"{path} does not contain a {cls.__name__} "
            f"(got {type(obj).__name__})"
        )
    return obj
