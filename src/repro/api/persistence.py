"""Family-agnostic save/load on top of the versioned payload format.

``save_index`` / ``load_index`` work for **every** index family — static
trees, hashing baselines, and the dynamic/partitioned composites — without
the caller naming a class: the payload envelope
(:mod:`repro.utils.persistence`) carries the index object plus the spec
dictionary it was built from, and version mismatches fail with a clear
error instead of corrupt state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from os import PathLike

from repro.api.specs import IndexSpec
from repro.storage import sidecar_path, verify_sidecar
from repro.utils.persistence import (
    dump_index_payload,
    load_index_payload,
    read_index_header,
    read_index_spec,
    read_storage_dtype,
)

#: Registry of every key the payload header may carry, mapped to the
#: format version that introduced it.  The header is additive-only —
#: readers back to version 1 must keep loading newer files — so a new
#: key is a two-line change: the write site in
#: :func:`repro.utils.persistence.dump_index_payload` and a row here.
#: The static-analysis rule REP501 cross-checks write sites against this
#: table, so forgetting the row fails ``repro check`` instead of
#: surfacing as format drift in a reader months later.
HEADER_KEY_VERSIONS: Dict[str, int] = {
    "format": 1,
    "format_version": 1,
    "spec": 1,
    "storage_dtype": 1,
    "storage": 1,
    "shards": 1,
}


def save_index(index: Any, path: Union[str, PathLike]) -> None:
    """Persist any index to ``path`` in the versioned payload format.

    Indexes exposing their own ``save`` (every family in the library)
    delegate to it, so class-specific invariants (fitted-state checks)
    still run; other objects are wrapped directly.
    """
    saver = getattr(index, "save", None)
    if callable(saver):
        saver(path)
        return
    dump_index_payload(path, index, spec=getattr(index, "_api_spec", None))


def load_index(
    path: Union[str, PathLike], *, with_spec: bool = False
) -> Union[Any, Tuple[Any, Optional[IndexSpec]]]:
    """Load an index saved by any family's ``save`` (or :func:`save_index`).

    The class is reconstructed from the payload itself — callers never
    name it up front.  With ``with_spec=True`` the return value is a
    ``(index, spec)`` tuple where ``spec`` is the
    :class:`~repro.api.IndexSpec` the index was built from (None for
    indexes constructed directly rather than through the registry).

    Raises
    ------
    ValueError
        If the file was written with an incompatible format version, or
        holds an index family this build no longer ships (the message
        names the file and the missing class).
    """
    payload = load_index_payload(path)
    if not with_spec:
        return payload["index"]
    spec = payload["spec"]
    return payload["index"], (None if spec is None else IndexSpec.from_dict(spec))


def saved_spec(path: Union[str, PathLike]) -> Optional[IndexSpec]:
    """The spec stamped into a saved index file.

    Reads only the payload's small header frame — inspecting how a
    multi-gigabyte index was configured never unpickles the index itself.
    """
    spec = read_index_spec(path)
    return None if spec is None else IndexSpec.from_dict(spec)


def saved_storage_dtype(path: Union[str, PathLike]) -> Optional[str]:
    """The storage dtype stamped into a saved index file.

    The dtype the persisted point/geometry arrays are stored in (e.g.
    ``"float64"``), read from the payload's small header frame without
    unpickling the index.  Returns None for files saved before the header
    key existed.  The fast mode's reduced-precision arrays are derived
    runtime caches and are never what this reports — a loaded index
    rebuilds them on the first ``exact=False`` search.
    """
    return read_storage_dtype(path)


@dataclass(frozen=True)
class IndexDescription:
    """Header-only description of a saved index (see :func:`describe_index`)."""

    path: str
    format_version: Optional[int]
    spec: Optional[IndexSpec]
    storage: Optional[Dict[str, str]]
    storage_dtype: Optional[str]
    payload_bytes: int
    sidecar_bytes: int
    #: Shard layout of a partitioned payload (``{"count", "sizes"}``);
    #: None for single-index payloads and files saved before the key.
    shards: Optional[Dict[str, Any]] = None

    @property
    def kind(self) -> Optional[str]:
        """The registry kind the index was built as, when spec-stamped."""
        return None if self.spec is None else self.spec.kind

    @property
    def num_shards(self) -> Optional[int]:
        """Partition count of a partitioned payload (None otherwise)."""
        if not self.shards:
            return None
        count = self.shards.get("count")
        return None if count is None else int(count)

    @property
    def shard_sizes(self) -> Optional[list]:
        """Per-shard point counts of a partitioned payload (None otherwise)."""
        if not self.shards:
            return None
        sizes = self.shards.get("sizes")
        return None if sizes is None else [int(size) for size in sizes]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (for the ``repro info`` CLI output)."""
        # repro: allow[REP501] report dict for `repro info`, never written
        # into a payload header; its extra keys are output fields.
        return {
            "path": self.path,
            "format_version": self.format_version,
            "kind": self.kind,
            "spec": None if self.spec is None else self.spec.to_dict(),
            "storage": self.storage,
            "storage_dtype": self.storage_dtype,
            "payload_bytes": self.payload_bytes,
            "sidecar_bytes": self.sidecar_bytes,
            "num_shards": self.num_shards,
            "shard_sizes": self.shard_sizes,
        }


def describe_index(path: Union[str, PathLike]) -> IndexDescription:
    """Describe a saved index from its header frame alone.

    Reads a few hundred bytes — the versioned header plus filesystem
    sizes — and **never unpickles the index or opens its arrays**, so
    inspecting a multi-gigabyte mmap-backed payload is effectively free.
    Legacy raw pickles (pre-envelope files) report
    ``format_version=None`` and all header fields as None.

    Raises
    ------
    ValueError
        If the payload was written with an incompatible format version,
        or its ``.arrays`` mmap sidecar is missing or holds truncated
        arrays (the error names the offending sidecar path — a payload
        copied without its sidecar is not a servable artifact, and
        describing it as one would hide that).
    FileNotFoundError
        If ``path`` does not exist.
    """
    path = Path(path)
    header = read_index_header(path)
    header = {} if header is None else header
    spec = header.get("spec")
    storage = header.get("storage") or {}
    # A header that says mmap promises a sidecar; verify it now so a
    # half-copied artifact fails here, naming the sidecar, instead of as
    # a raw numpy error inside the first search.  Non-mmap payloads skip
    # the existence requirement but still reject truncated leftovers.
    verify_sidecar(path, required=storage.get("backend") == "mmap")
    sidecar = sidecar_path(path)
    sidecar_bytes = 0
    if sidecar.is_dir():
        sidecar_bytes = sum(
            item.stat().st_size for item in sidecar.rglob("*") if item.is_file()
        )
    return IndexDescription(
        path=str(path),
        format_version=header.get("format_version"),
        spec=None if spec is None else IndexSpec.from_dict(spec),
        storage=header.get("storage"),
        storage_dtype=header.get("storage_dtype"),
        payload_bytes=path.stat().st_size,
        sidecar_bytes=sidecar_bytes,
        shards=header.get("shards"),
    )
