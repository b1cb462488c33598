"""Extension — cluster serving throughput: scatter-gather scaling over shards.

The distributed tier (:mod:`repro.cluster`) exists to buy throughput
with processes: each shard owns a slice of the data behind its own
server, the router scatters every coalesced flush to all shards and
merges the gathered top-k lists with the partitioned index's own block
merge.  This benchmark measures that claim end to end — real shard
processes, real sockets, real gather-merge — with the same **open-loop**
load harness as ``bench_serving.py``: arrival times scheduled up front
at a fixed rate derived from the single-process capacity, latency
charged from scheduled arrival (no coordinated omission).

One request schedule is answered by a ladder of deployments over the
identical dataset:

* **baseline** — the single-process coalescing server of
  ``bench_serving.py`` over the full index: the 1x reference.
* **1 / 2 / 4 shards** (``REPRO_CLUSTER_SHARDS``) — the scatter-gather
  cluster, one shard server per slice plus the router front end.

Asserted at **every** scale: each answered request is bit-identical to a
single-process :class:`~repro.core.partitioned.PartitionedP2HIndex`
built with the same placement (for the baseline: to direct
``searcher.search``), and no request errors.  At the acceptance scale
(>= 4096 requests) the cluster must scale: at least 1.6x baseline QPS
with 2 shards and 2.5x with 4.  A second test pins correctness under
concurrent routed inserts: every answer racing an update equals the
pre-update or post-update snapshot, never a mix.

Scale knobs: ``REPRO_CLUSTER_REQUESTS`` (default 4096),
``REPRO_CLUSTER_POINTS`` (default 32768), ``REPRO_CLUSTER_CONNECTIONS``
(default 128), ``REPRO_CLUSTER_SHARDS`` (default ``1,2,4``),
``REPRO_CLUSTER_MODE`` (``process``/``thread``, default process),
``REPRO_CLUSTER_OVERDRIVE`` (arrival rate as a multiple of measured
single-process capacity, default 8).
"""

from __future__ import annotations

import asyncio
import os

import numpy as np

from repro.api import IndexSpec, SearchOptions, Searcher, build_index
from repro.cluster import ClusterManager, ClusterSpec, build_cluster_dir
from repro.eval.reporting import print_and_save
from repro.serve import BackgroundServer, ServeClient, ServeConfig

from bench_serving import _drive_open_loop, _measure_direct_qps
from conftest import bench_scale_config, emit_bench_json

K = 10
DIM = 32
LEAF_SIZE = 20
NUM_QUERIES = 256
MAX_BATCH = 128
#: QPS factor over the single-process baseline the cluster must deliver
#: at the acceptance scale, by shard count (the cluster PR's headline).
MIN_SPEEDUP = {2: 1.6, 4: 2.5}
#: Request count at which the scaling assertions engage; smoke-scale CI
#: runs below it still assert parity and zero errors at every scale.
SPEEDUP_GATE_REQUESTS = 4096

SUB_SPEC = {"kind": "kd_tree", "params": {"leaf_size": LEAF_SIZE}}


def _num_requests() -> int:
    return int(os.environ.get("REPRO_CLUSTER_REQUESTS", "4096"))


def _num_points() -> int:
    return int(os.environ.get("REPRO_CLUSTER_POINTS", "32768"))


def _num_connections() -> int:
    return int(os.environ.get("REPRO_CLUSTER_CONNECTIONS", "128"))


def _shard_counts() -> list:
    raw = os.environ.get("REPRO_CLUSTER_SHARDS", "1,2,4")
    return [int(part) for part in raw.split(",") if part.strip()]


def _mode() -> str:
    return os.environ.get("REPRO_CLUSTER_MODE", "process")


def _overdrive() -> float:
    return float(os.environ.get("REPRO_CLUSTER_OVERDRIVE", "8"))


def _cluster_spec(num_shards: int, total: int, **overrides) -> ClusterSpec:
    return ClusterSpec(
        num_shards=num_shards,
        index=IndexSpec.from_dict(overrides.pop("index", SUB_SPEC)),
        strategy="contiguous",
        default_k=K,
        max_batch=MAX_BATCH,
        max_queue_depth=max(2 * total, 1024),  # the backlog IS the experiment
        request_timeout_ms=600_000.0,          # ... so nothing 504s out of it
        **overrides,
    )


def _round_record(mode, answers, latencies, wall, errors):
    answered = [a for a in answers if a is not None]
    millis = sorted(lat * 1000.0 for lat in latencies if lat is not None)
    return {
        "mode": mode,
        "answers": answers,
        "errors": errors,
        "qps": len(answered) / wall if wall > 0 else 0.0,
        "p50_ms": float(np.percentile(millis, 50)) if millis else 0.0,
        "p99_ms": float(np.percentile(millis, 99)) if millis else 0.0,
    }


def _assert_parity_to_batch(answers, query_ids, expected_rows):
    """Every answered request is bit-identical to its reference row."""
    for i, answer in enumerate(answers):
        if answer is None:
            continue
        expected = expected_rows[query_ids[i]]
        assert answer["indices"] == [int(x) for x in expected.indices]
        assert answer["distances"] == [float(x) for x in expected.distances]


def test_cluster_scaling(results_dir, tmp_path):
    """Open-loop QPS ladder: single process vs 1/2/4-shard clusters."""
    total = _num_requests()
    connections = _num_connections()
    rng = np.random.default_rng(2023)
    points = rng.normal(size=(_num_points(), DIM))
    queries = rng.normal(size=(NUM_QUERIES, DIM + 1))
    query_ids = rng.integers(0, NUM_QUERIES, size=total).tolist()

    index = build_index(SUB_SPEC).fit(points)
    baseline_config = ServeConfig(
        max_batch=MAX_BATCH,
        max_queue_depth=max(2 * total, 1024),
        request_timeout_ms=600_000.0,
    )
    with Searcher(index, SearchOptions(k=K)) as searcher:
        direct = [searcher.search(query, k=K) for query in queries]
        rate = _overdrive() * _measure_direct_qps(searcher, queries)
        with BackgroundServer(searcher, baseline_config) as server:
            baseline = _round_record(
                "baseline",
                *_drive_open_loop(
                    server.port, queries, query_ids, rate, connections
                ),
            )
    _assert_parity_to_batch(baseline["answers"], query_ids, direct)
    assert not baseline["errors"]
    assert baseline["qps"] > 0

    rounds = [baseline]
    for num_shards in _shard_counts():
        reference = build_index(
            {
                "kind": "partitioned",
                "params": {
                    "num_partitions": num_shards,
                    "strategy": "contiguous",
                    "index": SUB_SPEC,
                },
            }
        ).fit(points)
        expected = reference.batch_search(queries, k=K).results
        manifest = build_cluster_dir(
            points,
            _cluster_spec(num_shards, total),
            tmp_path / f"cluster_{num_shards}",
        )
        with ClusterManager(manifest, mode=_mode()) as cluster:
            round_stats = _round_record(
                f"{num_shards}-shard",
                *_drive_open_loop(
                    cluster.router_port, queries, query_ids, rate, connections
                ),
            )
        _assert_parity_to_batch(round_stats["answers"], query_ids, expected)
        assert not round_stats["errors"]
        assert round_stats["qps"] > 0
        round_stats["speedup"] = round_stats["qps"] / baseline["qps"]
        if total >= SPEEDUP_GATE_REQUESTS and num_shards in MIN_SPEEDUP:
            assert round_stats["speedup"] >= MIN_SPEEDUP[num_shards], (
                f"{num_shards} shards delivered only "
                f"{round_stats['speedup']:.2f}x baseline QPS (needed "
                f"{MIN_SPEEDUP[num_shards]}x) at {total} requests"
            )
        rounds.append(round_stats)

    records = [
        {
            "mode": r["mode"],
            "qps": round(r["qps"], 1),
            "speedup": round(r.get("speedup", 1.0), 2),
            "p50_ms": round(r["p50_ms"], 3),
            "p99_ms": round(r["p99_ms"], 3),
        }
        for r in rounds
    ]
    print_and_save(
        records,
        ["mode", "qps", "speedup", "p50_ms", "p99_ms"],
        title=(
            f"Cluster serving throughput, open-loop x{_overdrive():g} "
            f"overdrive ({total} requests, {connections} connections, "
            f"mode={_mode()})"
        ),
        json_path=results_dir / "cluster.json",
    )
    emit_bench_json(
        "cluster",
        test="test_cluster_scaling",
        config=bench_scale_config(
            index="kd_tree",
            cluster_points=_num_points(),
            dim=DIM,
            leaf_size=LEAF_SIZE,
            k=K,
            requests=total,
            connections=connections,
            shard_counts=_shard_counts(),
            mode=_mode(),
            overdrive=_overdrive(),
            max_batch=MAX_BATCH,
        ),
        metrics={
            "qps_baseline": round(baseline["qps"], 1),
            **{
                f"qps_{r['mode'].replace('-', '_')}": round(r["qps"], 1)
                for r in rounds[1:]
            },
            **{
                f"speedup_{r['mode'].replace('-', '_')}": round(r["speedup"], 2)
                for r in rounds[1:]
            },
        },
        records=records,
    )


def test_cluster_concurrent_inserts(results_dir, tmp_path):
    """Queries racing a routed insert see pre- or post-snapshot, never a mix."""
    rng = np.random.default_rng(7)
    points = rng.normal(size=(min(_num_points(), 4096), DIM))
    query = rng.normal(size=DIM + 1)
    normal, offset = query[:DIM], query[DIM]
    # Points at (numerically) zero distance from the query's hyperplane:
    # the update visibly rewrites the top-k the moment it lands.
    inserts = np.tile(-offset * normal / float(normal @ normal), (8, 1))
    manifest = build_cluster_dir(
        points,
        _cluster_spec(
            2,
            1024,
            index={
                "kind": "dynamic",
                "params": {"index": SUB_SPEC, "auto_rebuild": False},
            },
        ),
        tmp_path / "cluster_dyn",
    )
    payload = {"inserts": inserts.tolist(), "deletes": []}
    with ClusterManager(manifest, mode=_mode()) as cluster:
        pre = cluster.search(query, k=K)
        port = cluster.router_port

        async def race():
            async with ServeClient("127.0.0.1", port) as updater:
                async with ServeClient("127.0.0.1", port) as reader:
                    update = asyncio.ensure_future(
                        updater.post("/update", payload)
                    )
                    racing = []
                    while not update.done():
                        racing.append(await reader.search(query, k=K))
                    await update
                    racing.append(await reader.search(query, k=K))
                    return racing

        racing = asyncio.run(race())
        post = cluster.search(query, k=K)
    assert pre != post
    pre_counts = 0
    for answer in racing:
        snapshot = (tuple(answer["indices"]), tuple(answer["distances"]))
        assert snapshot in (
            (tuple(pre["indices"]), tuple(pre["distances"])),
            (tuple(post["indices"]), tuple(post["distances"])),
        )
        pre_counts += snapshot == (
            tuple(pre["indices"]), tuple(pre["distances"])
        )
    emit_bench_json(
        "cluster",
        test="test_cluster_concurrent_inserts",
        config=bench_scale_config(
            cluster_points=int(points.shape[0]),
            dim=DIM,
            k=K,
            mode=_mode(),
            inserts=int(inserts.shape[0]),
        ),
        metrics={
            "racing_answers": len(racing),
            "pre_snapshot_answers": pre_counts,
            "post_snapshot_answers": len(racing) - pre_counts,
        },
    )
