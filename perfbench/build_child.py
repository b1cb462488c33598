"""Build step of ``serve-open`` and ``cluster-rw`` in a program process.

Usage: ``python3 perfbench/build_child.py KIND RUN_DIR REP TRACE`` with
KIND ``serve`` (fit and save one BC-Tree payload) or ``cluster`` (build
one dynamic-shard cluster directory with ``repro.cluster.build_cluster_dir``)
for set-up repetition REP.  Writes ``buildREP.json`` and, traced,
``build_spansREP.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import config
from common import Tracer, now, path_bytes


def cluster_spec():
    from repro.api import IndexSpec
    from repro.cluster import ClusterSpec

    cfg = config.CLUSTER
    shard = IndexSpec.from_dict({
        "kind": "dynamic",
        "params": {
            "rebuild_threshold": cfg["rebuild_threshold"],
            "index": {
                "kind": "bc_tree",
                "params": {
                    "leaf_size": config.LEAF_SIZE,
                    "random_state": config.TREE_SEED,
                },
            },
        },
    })
    return ClusterSpec(
        num_shards=cfg["num_shards"],
        index=shard,
        strategy=cfg["strategy"],
        default_k=config.K,
    )


def traced_persistence(tracer: Tracer) -> None:
    """Span every save_index and dynamic rebuild the cluster build makes.

    ``build_cluster_dir`` imports ``save_index`` from ``repro.api`` at call
    time, so replacing the module attribute reaches it.
    """
    import repro.api
    from repro.core.dynamic import DynamicP2HIndex

    save = repro.api.save_index
    rebuild = DynamicP2HIndex.rebuild

    def traced_save(index, path):
        with tracer.span("save_index"):
            return save(index, path)

    def traced_rebuild(self):
        with tracer.span("build_index.fit"):
            return rebuild(self)

    repro.api.save_index = traced_save
    DynamicP2HIndex.rebuild = traced_rebuild


def main(kind: str, run_dir: Path, rep: int, trace: bool) -> None:
    from repro.api import build_index, load_index, save_index

    tracer = Tracer(trace)
    points = np.load(run_dir / "points.npy")
    if kind == "serve":
        path = run_dir / f"serve{rep}.idx"
        t0 = now()
        with tracer.span("build_index.fit"):
            index = build_index(
                "bc_tree", leaf_size=config.LEAF_SIZE, random_state=config.TREE_SEED
            ).fit(points)
        t1 = now()
        with tracer.span("save_index"):
            save_index(index, path)
        t2 = now()
        built = {"fit_s": t1 - t0, "save_s": t2 - t1}
    else:
        from repro.cluster import build_cluster_dir

        if trace:
            traced_persistence(tracer)
        path = run_dir / f"cluster{rep}"
        t0 = now()
        manifest = build_cluster_dir(points, cluster_spec(), path, rng=config.TREE_SEED)
        t2 = now()
        built = {}
        if trace:
            # The load each shard process makes at start, timed here
            # because the shards run inside ``repro cluster``.
            for entry in manifest.shards:
                with tracer.span("load_index"):
                    load_index(entry.payload_path)
    built.update(path=str(path), build_s=t2 - t0, index_bytes=path_bytes(path))
    (run_dir / f"build{rep}.json").write_text(json.dumps(built))
    if trace:
        tracer.dump(run_dir / f"build_spans{rep}.json")


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1")
