"""Cluster directories: shard payloads plus a JSON manifest.

A *cluster directory* is the on-disk form of one scatter-gather
deployment: one saved index payload per shard (the ordinary versioned
payload format every index's ``save`` writes), one ``.npy`` file per
shard mapping shard-local positions to global point ids, and a
``manifest.json`` tying them to a :class:`~repro.cluster.ClusterSpec`::

    cluster_dir/
        manifest.json
        shard_00.idx            # any save_index payload (+ .arrays sidecar)
        shard_00.ids.npy        # local position -> global point id
        shard_01.idx
        shard_01.ids.npy

Directories are built two ways: :func:`split_partitioned_payload` carves
an existing :class:`~repro.core.partitioned.PartitionedP2HIndex` payload
into per-shard payloads (keeping its exact placement, so gathered
answers stay bit-identical to the single-process index), and
:func:`build_cluster_dir` partitions raw points under a spec.  The
manifest's own envelope key is ``manifest_version`` — deliberately *not*
the index payload's ``format_version``, whose registry (REP501) governs
index headers only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from os import PathLike

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.core.partitioned import PartitionedP2HIndex, partition_indices

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-cluster-manifest"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShardEntry:
    """One shard's on-disk artifacts, paths resolved against the directory."""

    shard_id: int
    payload_path: Path
    point_ids_path: Path
    size: int

    def load_point_ids(self) -> np.ndarray:
        """The shard's local-position -> global-id map."""
        ids = np.load(self.point_ids_path)
        return np.asarray(ids, dtype=np.int64)


@dataclass(frozen=True)
class ClusterManifest:
    """A parsed ``manifest.json`` plus the directory it lives in."""

    directory: Path
    spec: ClusterSpec
    shards: List[ShardEntry]

    @property
    def num_points(self) -> int:
        return sum(entry.size for entry in self.shards)


def _shard_stem(shard_id: int) -> str:
    return f"shard_{shard_id:02d}"


def write_manifest(
    directory: Union[str, PathLike],
    spec: ClusterSpec,
    shard_point_ids: List[np.ndarray],
) -> Path:
    """Write ``manifest.json`` (the shard payloads must already be saved)."""
    directory = Path(directory)
    shards = []
    for shard_id, ids in enumerate(shard_point_ids):
        stem = _shard_stem(shard_id)
        ids = np.asarray(ids, dtype=np.int64)
        np.save(directory / f"{stem}.ids.npy", ids)
        shards.append(
            {
                "id": shard_id,
                "payload": f"{stem}.idx",
                "point_ids": f"{stem}.ids.npy",
                "size": int(ids.size),
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "manifest_version": MANIFEST_VERSION,
        "spec": spec.to_dict(),
        "shards": shards,
    }
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def read_manifest(path: Union[str, PathLike]) -> ClusterManifest:
    """Parse a cluster directory's manifest (accepts the dir or the file).

    Raises
    ------
    FileNotFoundError
        If no manifest exists at ``path``.
    ValueError
        If the file is not a cluster manifest, was written by an
        incompatible version, or references missing shard artifacts.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"no cluster manifest at {manifest_path}; build one with "
            "split_partitioned_payload or build_cluster_dir"
        )
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{manifest_path} is not a {MANIFEST_FORMAT} manifest"
        )
    version = data.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"{manifest_path} was written with manifest_version {version}, "
            f"but this build reads version {MANIFEST_VERSION}"
        )
    directory = manifest_path.parent
    spec = ClusterSpec.from_dict(data["spec"])
    shards: List[ShardEntry] = []
    for entry in data["shards"]:
        payload = directory / entry["payload"]
        point_ids = directory / entry["point_ids"]
        for artifact in (payload, point_ids):
            if not artifact.exists():
                raise ValueError(
                    f"{manifest_path} references missing shard artifact "
                    f"{artifact}; the directory is incomplete"
                )
        shards.append(
            ShardEntry(
                shard_id=int(entry["id"]),
                payload_path=payload,
                point_ids_path=point_ids,
                size=int(entry["size"]),
            )
        )
    if len(shards) != spec.num_shards:
        raise ValueError(
            f"{manifest_path} lists {len(shards)} shards but its spec "
            f"declares num_shards={spec.num_shards}"
        )
    return ClusterManifest(directory=directory, spec=spec, shards=shards)


def split_partitioned_payload(
    payload_path: Union[str, PathLike],
    out_dir: Union[str, PathLike],
    *,
    spec: Optional[ClusterSpec] = None,
) -> ClusterManifest:
    """Carve a saved partitioned index into a cluster directory.

    Each of the payload's shards is re-saved as its own payload and the
    partition's id map becomes the shard's ``point_ids`` file, so the
    cluster serves **exactly** the placement the partitioned index was
    built with — the precondition for gathered answers being
    bit-identical to the single-process ``batch_search``.

    ``spec`` overrides the topology (ports, serve knobs); its
    ``num_shards``/``strategy`` must agree with the payload.  Without it,
    the topology is derived from the payload's stamped spec (ephemeral
    ports everywhere).
    """
    from repro.api import load_index, saved_spec

    payload_path = Path(payload_path)
    index = load_index(payload_path)
    if not isinstance(index, PartitionedP2HIndex):
        raise TypeError(
            f"{payload_path} holds a {type(index).__name__}; splitting "
            "needs a PartitionedP2HIndex payload"
        )
    stamped = saved_spec(payload_path)
    if spec is None:
        if stamped is not None:
            spec = ClusterSpec.from_partitioned_spec(stamped)
            if spec.num_shards != len(index.shards):
                spec = ClusterSpec.from_dict(
                    dict(spec.to_dict(), num_shards=len(index.shards))
                )
        else:
            spec = ClusterSpec(
                num_shards=len(index.shards), strategy=index.strategy
            )
    if spec.num_shards != len(index.shards):
        raise ValueError(
            f"spec declares num_shards={spec.num_shards} but {payload_path} "
            f"holds {len(index.shards)} shards"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from repro.api import save_index

    for shard_id, shard in enumerate(index.shards):
        save_index(shard, out_dir / f"{_shard_stem(shard_id)}.idx")
    write_manifest(out_dir, spec, list(index.shard_point_ids))
    return read_manifest(out_dir)


def build_cluster_dir(
    points: np.ndarray,
    spec: ClusterSpec,
    out_dir: Union[str, PathLike],
    *,
    rng: Any = None,
) -> ClusterManifest:
    """Partition raw ``points`` under ``spec`` into a cluster directory.

    Placement uses the spec's strategy via
    :func:`~repro.core.partitioned.partition_indices` — the same splitter
    :class:`~repro.core.partitioned.PartitionedP2HIndex` fits with, so a
    partitioned index built from the same points/strategy/seed owns
    identical shards.  Dynamic shards (``spec.updatable``) are built by
    inserting the slice, which assigns local ids ``0..n-1`` in slice order
    — the position-as-local-id invariant the router's update path relies
    on — and fit once: the insert's own rebuild fits a shard that
    rebuilds automatically, and an explicit
    :meth:`~repro.core.dynamic.DynamicP2HIndex.rebuild` fits one whose spec
    sets ``auto_rebuild: false`` (its insert leaves the rows buffered).
    """
    from repro.api import build_index, save_index

    points = np.asarray(points, dtype=np.float64)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shard_ids = partition_indices(
        points, spec.num_shards, spec.strategy, rng=rng
    )
    for shard_id, ids in enumerate(shard_ids):
        index = build_index(spec.index.to_dict())
        slice_points = points[ids]
        if spec.updatable:
            index.insert(slice_points)
            if index.buffer_size:
                index.rebuild()
        else:
            index.fit(slice_points)
        save_index(index, out_dir / f"{_shard_stem(shard_id)}.idx")
    write_manifest(out_dir, spec, shard_ids)
    return read_manifest(out_dir)
