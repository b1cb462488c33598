"""The distributed scatter-gather tier: specs, manifests, routing, parity.

The heart of the suite is distributed/single-process **bit-identity**:
answers gathered from shard servers through the router must equal —
indices, distances, and tie order — what the in-process
:class:`~repro.core.partitioned.PartitionedP2HIndex` returns for the
same queries, including datasets engineered to hold exact distance ties
at the top-k boundary.  Around that: spec/manifest round trips and their
error contracts, snapshot-versioned updates (concurrent queries never
observe a half-applied batch), degraded serving with a killed shard
(descriptive 503s, recovery after restart), and the ``repro cluster``
CLI's refusal paths.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import time
from multiprocessing.connection import Connection
from multiprocessing.context import SpawnProcess

import numpy as np
import pytest

from repro.api import (
    IndexSpec,
    Searcher,
    build_index,
    describe_index,
    load_index,
    save_index,
)
from repro.cli import main as cli_main
from repro.cluster import manager as cluster_manager
from repro.cluster import (
    ClusterManager,
    ClusterSpec,
    ShardServer,
    build_cluster_dir,
    read_manifest,
    resolve_cluster_spec,
    split_partitioned_payload,
    write_manifest,
)
from repro.cluster.shard import _parse_update_payload, parse_update_rows
from repro.serve import BackgroundServer, ServeClient, ServeConfig, ServeError
from repro.serve.http import HttpError

DIM = 6
LEAF_SIZE = 16

#: The per-shard index every cluster in this suite serves.
SUB_SPEC = {"kind": "kd_tree", "params": {"leaf_size": LEAF_SIZE}}

#: A dynamic (updatable) shard over the same sub-index.
DYNAMIC_SPEC = {
    "kind": "dynamic",
    "params": {"index": SUB_SPEC, "auto_rebuild": False},
}


def make_points(n, *, seed=0, duplicates=1):
    """``n`` base points, each repeated ``duplicates`` times (exact ties)."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, DIM))
    return np.vstack([base] * duplicates)


def make_queries(num, *, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(num, DIM + 1))


def cluster_spec(num_shards, *, index=None, **overrides):
    return ClusterSpec(
        num_shards=num_shards,
        index=IndexSpec.from_dict(index or SUB_SPEC),
        strategy="contiguous",
        **overrides,
    )


def partitioned_reference(points, num_shards):
    """The single-process index whose answers the cluster must reproduce."""
    spec = {
        "kind": "partitioned",
        "params": {
            "num_partitions": num_shards,
            "strategy": "contiguous",
            "index": SUB_SPEC,
        },
    }
    return build_index(spec).fit(points)


def routed_answers(port, queries, k, **options):
    """One concurrent routed request per query (coalescable)."""

    async def drive():
        async def one(query):
            async with ServeClient("127.0.0.1", port) as client:
                return await client.search(query, k=k, **options)

        return await asyncio.gather(*[one(query) for query in queries])

    return asyncio.run(drive())


def assert_matches_reference(answers, reference, queries, k):
    """Routed answers are bit-identical to the reference ``batch_search``."""
    batch = reference.batch_search(queries, k=k)
    for answer, expected in zip(answers, batch.results):
        assert answer["indices"] == [int(i) for i in expected.indices]
        assert answer["distances"] == [float(d) for d in expected.distances]


# ---------------------------------------------------------------- ClusterSpec


def test_cluster_spec_round_trips():
    spec = cluster_spec(3, shard_ports=(9001, 9002, 9003), router_port=9000)
    assert ClusterSpec.from_dict(spec.to_dict()) == spec
    assert ClusterSpec.from_json(spec.to_json()) == spec
    assert resolve_cluster_spec(spec.to_json()) == spec
    assert resolve_cluster_spec(spec) is spec
    assert not spec.updatable
    assert spec.shard_port(1) == 9002
    assert cluster_spec(2).shard_port(1) == 0  # ephemeral everywhere


def test_cluster_spec_updatable_flag():
    assert cluster_spec(2, index=DYNAMIC_SPEC).updatable


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(num_shards=0), "num_shards"),
        (dict(num_shards=True), "num_shards"),
        (dict(num_shards=2, strategy="alphabetical"), "strategy"),
        (dict(num_shards=3, shard_ports=(9001,)), "one port per shard"),
        (dict(num_shards=2, default_k=0), "default_k"),
    ],
)
def test_cluster_spec_validation(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        ClusterSpec(**kwargs)


def test_cluster_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown cluster spec"):
        ClusterSpec.from_dict({"num_shards": 2, "replication": 3})
    with pytest.raises(ValueError, match="num_shards"):
        ClusterSpec.from_dict({"strategy": "contiguous"})


def test_from_partitioned_spec():
    partitioned = IndexSpec.from_dict(
        {
            "kind": "partitioned",
            "params": {
                "num_partitions": 3,
                "strategy": "contiguous",
                "index": SUB_SPEC,
            },
        }
    )
    spec = ClusterSpec.from_partitioned_spec(partitioned, router_port=9000)
    assert spec.num_shards == 3
    assert spec.strategy == "contiguous"
    assert spec.index.kind == "kd_tree"
    assert spec.router_port == 9000
    with pytest.raises(ValueError, match="partitioned"):
        ClusterSpec.from_partitioned_spec(IndexSpec.from_dict(SUB_SPEC))


# ------------------------------------------------------------------ manifests


def test_build_cluster_dir_round_trips(tmp_path):
    points = make_points(60)
    manifest = build_cluster_dir(points, cluster_spec(2), tmp_path / "c")
    assert manifest.num_points == len(points)
    assert [entry.size for entry in manifest.shards] == [30, 30]
    reread = read_manifest(tmp_path / "c")
    assert reread.spec == manifest.spec
    ids = np.concatenate([e.load_point_ids() for e in reread.shards])
    np.testing.assert_array_equal(np.sort(ids), np.arange(len(points)))


@pytest.mark.parametrize("auto_rebuild", [True, False])
def test_build_cluster_dir_fits_each_dynamic_shard_once(tmp_path, auto_rebuild):
    """Dynamic shards are saved fitted, after exactly one rebuild, with
    local ids ``0..n-1`` in slice order, whether or not they rebuild on
    their own."""
    points = make_points(60)
    spec = {
        "kind": "dynamic",
        "params": {"index": SUB_SPEC, "auto_rebuild": auto_rebuild},
    }
    manifest = build_cluster_dir(
        points, cluster_spec(2, index=spec), tmp_path / "c"
    )
    for entry in manifest.shards:
        shard = load_index(entry.payload_path)
        assert shard.num_rebuilds == 1
        assert shard.buffer_size == 0
        assert shard.num_points == entry.size
        global_ids = entry.load_point_ids()
        for local_id, global_id in enumerate(global_ids):
            np.testing.assert_array_equal(
                shard.point(local_id), points[global_id]
            )
        with pytest.raises(KeyError):
            shard.point(entry.size)


def test_read_manifest_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="no cluster manifest"):
        read_manifest(tmp_path / "missing")
    bogus = tmp_path / "bogus"
    bogus.mkdir()
    (bogus / "manifest.json").write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a repro-cluster-manifest"):
        read_manifest(bogus)
    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "manifest.json").write_text(
        '{"format": "repro-cluster-manifest", "manifest_version": 99}'
    )
    with pytest.raises(ValueError, match="manifest_version 99"):
        read_manifest(stale)
    built = build_cluster_dir(make_points(40), cluster_spec(2), tmp_path / "c")
    built.shards[1].payload_path.unlink()
    with pytest.raises(ValueError, match="missing shard artifact"):
        read_manifest(tmp_path / "c")


def test_write_manifest_guards_shard_count(tmp_path):
    # A spec/shard-list mismatch must not survive a write/read cycle.
    points = make_points(40)
    build_cluster_dir(points, cluster_spec(2), tmp_path / "c")
    write_manifest(
        tmp_path / "c", cluster_spec(2), [np.arange(20), np.arange(20, 40)]
    )
    assert read_manifest(tmp_path / "c").num_points == 40


def test_split_partitioned_payload_preserves_placement(tmp_path):
    points = make_points(50, duplicates=2)  # 100 points, every one twice
    reference = partitioned_reference(points, 2)
    payload = tmp_path / "part.idx"
    save_index(reference, payload)
    manifest = split_partitioned_payload(payload, tmp_path / "c")
    assert manifest.spec.num_shards == 2
    for entry, expected in zip(manifest.shards, reference.shard_point_ids):
        np.testing.assert_array_equal(entry.load_point_ids(), expected)


def test_split_rejects_non_partitioned_payload(tmp_path):
    index = build_index(SUB_SPEC).fit(make_points(30))
    payload = tmp_path / "flat.idx"
    save_index(index, payload)
    with pytest.raises(TypeError, match="PartitionedP2HIndex"):
        split_partitioned_payload(payload, tmp_path / "c")


def test_describe_index_reports_shards(tmp_path):
    points = make_points(60)
    payload = tmp_path / "part.idx"
    save_index(partitioned_reference(points, 3), payload)
    description = describe_index(payload)
    assert description.num_shards == 3
    assert sum(description.shard_sizes) == len(points)
    as_dict = description.to_dict()
    assert as_dict["num_shards"] == 3
    assert sum(as_dict["shard_sizes"]) == len(points)


# ------------------------------------------------------- gather-merge parity


@pytest.mark.parametrize("num_shards", [1, 2, 3])
def test_routed_parity_with_boundary_ties(tmp_path, num_shards):
    """Distributed top-k == single-process top-k, ties and all.

    Every point appears three times (exact distance ties), contiguous
    placement spreads the copies across shards, and k cuts through the
    tie groups — the adversarial case for gather-merge tie-breaking.
    """
    points = make_points(25, duplicates=3)  # 75 points, every one thrice
    queries = make_queries(12)
    reference = partitioned_reference(points, num_shards)
    manifest = build_cluster_dir(
        points, cluster_spec(num_shards), tmp_path / "c"
    )
    with ClusterManager(manifest, mode="thread") as cluster:
        concurrent = routed_answers(cluster.router_port, queries, k=5)
        serial = [cluster.search(query, k=5) for query in queries]
    assert_matches_reference(concurrent, reference, queries, k=5)
    assert_matches_reference(serial, reference, queries, k=5)


def test_routed_fast_mode_parity(tmp_path):
    """Concurrent routed exact=False requests, in whatever blocks the
    router's flushes cut, each equal the reference's one-row fast search."""
    points = make_points(60)
    queries = make_queries(16)
    reference = partitioned_reference(points, 2)
    manifest = build_cluster_dir(points, cluster_spec(2), tmp_path / "c")
    with ClusterManager(manifest, mode="thread") as cluster:
        answers = routed_answers(cluster.router_port, queries, k=5, exact=False)
    for answer, query in zip(answers, queries):
        expected = reference.search(query, k=5, exact=False)
        assert answer["indices"] == [int(i) for i in expected.indices]
        assert answer["distances"] == [float(d) for d in expected.distances]


def test_shard_answers_a_tall_fast_block_as_one_row_searches():
    """A ``/search_batch`` block of more than 64 exact=False rows is
    answered in slices, so every row equals its one-row fast search."""
    queries = make_queries(100)
    index = build_index(SUB_SPEC).fit(make_points(600))
    with Searcher(index) as searcher:
        direct = [searcher.search(query, k=5, exact=False) for query in queries]
        with BackgroundServer(
            searcher, ServeConfig(), server_factory=ShardServer
        ) as server:
            async def post():
                async with ServeClient("127.0.0.1", server.port) as client:
                    return await client.post("/search_batch", {
                        "queries": queries.tolist(),
                        "k": 5,
                        "options": {"exact": False},
                    })

            answer = asyncio.run(post())
    assert len(answer["results"]) == len(queries)
    for row, expected in zip(answer["results"], direct):
        assert row["indices"] == [int(i) for i in expected.indices]
        assert row["distances"] == [float(d) for d in expected.distances]


def test_router_health_and_stats(tmp_path):
    manifest = build_cluster_dir(
        make_points(40), cluster_spec(2), tmp_path / "c"
    )
    with ClusterManager(manifest, mode="thread") as cluster:
        health = cluster.health()
        assert health["role"] == "router"
        assert health["index"] == "cluster"
        assert health["num_points"] == 40
        assert [shard["points"] for shard in health["shards"]] == [20, 20]
        cluster.search(make_queries(1)[0], k=3)
        stats = cluster.stats()
    assert stats["flushes"] >= 1
    assert stats["batches_by_size"].get("1") >= 1


def test_router_answers_a_lone_read_at_once(tmp_path):
    """The router's coalescer is group commit too: ``max_wait_ms`` is
    accepted (saved manifests carry it) but no read waits on it."""
    points = make_points(40)
    query = make_queries(1)[0]
    manifest = build_cluster_dir(
        points, cluster_spec(2, max_wait_ms=5000.0), tmp_path / "c"
    )
    with ClusterManager(manifest, mode="thread") as cluster:
        tic = time.perf_counter()
        answer = cluster.search(query, k=3)
        elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    assert answer["batch_size"] == 1
    assert_matches_reference(
        [answer], partitioned_reference(points, 2), query[None, :], k=3
    )


# -------------------------------------------------------------- routed updates


def on_hyperplane_point(query):
    """A point at exact distance zero from the hyperplane ``query``."""
    normal, offset = query[:DIM], query[DIM]
    return -offset * normal / float(normal @ normal)


def test_routed_update_insert_delete(tmp_path):
    points = make_points(40)
    queries = make_queries(4)
    manifest = build_cluster_dir(
        points, cluster_spec(2, index=DYNAMIC_SPEC), tmp_path / "c"
    )
    with ClusterManager(manifest, mode="thread") as cluster:
        before = cluster.search(queries[0], k=3)
        victim = int(before["indices"][0])
        inserts = np.vstack(
            [on_hyperplane_point(query) for query in queries]
        )
        outcome = cluster.update(inserts=inserts, deletes=[victim])
        assert outcome["version"] == 1
        assert outcome["deleted"] == 1
        new_ids = outcome["insert_ids"]
        assert sorted(new_ids) == list(range(40, 44))
        for query, new_id in zip(queries, new_ids):
            answer = cluster.search(query, k=3)
            # The inserted point sits (up to rounding) on its hyperplane:
            # unambiguously top-1.
            assert answer["indices"][0] == new_id
            assert answer["distances"][0] < 1e-9
            assert victim not in answer["indices"]
        health = cluster.health()
        assert health["num_points"] == 40 + 4 - 1
        assert health["version"] == 1


BAD_UPDATE_ROWS = [
    ({"inserts": [[1.0]], "mystery": 1}, "unknown request keys: mystery"),
    ({"inserts": "zap"}, "'inserts' must be a matrix of numbers"),
    ({"inserts": [1.0, 2.0]}, "'inserts' must be a 2-d matrix, got shape (2,)"),
    ({"inserts": [[1.0, float("inf")]]},
     "'inserts' must contain only finite numbers"),
    ({"deletes": 3}, "'deletes' must be a list of point ids"),
    ({"deletes": [1, True]}, "'deletes' must hold integers, got True"),
]


@pytest.mark.parametrize("body,message", BAD_UPDATE_ROWS)
def test_router_and_shard_reject_bad_update_rows_alike(body, message):
    for parse, payload in (
        (parse_update_rows, body),
        (_parse_update_payload, dict(body, version=1)),
    ):
        with pytest.raises(HttpError) as err:
            parse(payload)
        assert (err.value.status, err.value.message) == (400, message)


@pytest.mark.parametrize("body,message", [
    ({"inserts": [[1.0]]}, "'version' must be an integer >= 1, got None"),
    ({"version": 0}, "'version' must be an integer >= 1, got 0"),
    ({"version": True}, "'version' must be an integer >= 1, got True"),
])
def test_shard_update_needs_a_version(body, message):
    with pytest.raises(HttpError) as err:
        _parse_update_payload(body)
    assert (err.value.status, err.value.message) == (400, message)
    # The router's body carries no version: the key is unknown there.
    with pytest.raises(HttpError, match="unknown request keys: version"):
        parse_update_rows({"version": 1})


def test_update_rejected_on_static_cluster(tmp_path):
    manifest = build_cluster_dir(
        make_points(30), cluster_spec(2), tmp_path / "c"
    )
    with ClusterManager(manifest, mode="thread") as cluster:
        with pytest.raises(ServeError) as excinfo:
            cluster.update(inserts=make_points(2))
        assert excinfo.value.status == 400
        assert "KDTree" in excinfo.value.message


def test_concurrent_queries_never_see_half_applied_update(tmp_path):
    """Every answer racing an update equals pre- or post-snapshot, never a mix."""
    points = make_points(60)
    query = make_queries(1)[0]
    manifest = build_cluster_dir(
        points, cluster_spec(2, index=DYNAMIC_SPEC), tmp_path / "c"
    )
    inserts = np.vstack([on_hyperplane_point(query)] * 4)
    payload = {"inserts": inserts.tolist(), "deletes": []}
    with ClusterManager(manifest, mode="thread") as cluster:
        pre = cluster.search(query, k=5)
        port = cluster.router_port

        async def race():
            async with ServeClient("127.0.0.1", port) as updater:
                async with ServeClient("127.0.0.1", port) as reader:
                    update = asyncio.ensure_future(
                        updater.post("/update", payload)
                    )
                    racing = []
                    while not update.done():
                        racing.append(await reader.search(query, k=5))
                    await update
                    racing.append(await reader.search(query, k=5))
                    return racing

        racing = asyncio.run(race())
        post = cluster.search(query, k=5)
    assert pre != post  # the inserted ties rewrite the top-5
    for answer in racing:
        snapshot = {"indices": answer["indices"], "distances": answer["distances"]}
        assert snapshot in (
            {"indices": pre["indices"], "distances": pre["distances"]},
            {"indices": post["indices"], "distances": post["distances"]},
        )


# --------------------------------------------------------- degraded serving


def test_killed_shard_degrades_descriptively_and_recovers(tmp_path):
    points = make_points(40)
    query = make_queries(1)[0]
    manifest = build_cluster_dir(
        points, cluster_spec(2), tmp_path / "c"
    )
    with ClusterManager(manifest, mode="process") as cluster:
        before = cluster.search(query, k=3)
        cluster.kill_shard(0)
        with pytest.raises(ServeError) as excinfo:
            cluster.search(query, k=3)
        assert excinfo.value.status == 503
        assert "shard 0" in excinfo.value.message
        assert "unreachable" in excinfo.value.message
        cluster.restart_shard(0)
        after = cluster.search(query, k=3)
    assert after == before


def test_process_shards_launch_before_any_port_is_read(tmp_path, monkeypatch):
    """Every shard process is launched before the first port is read, so
    the shards import and load their payloads in parallel."""
    events = []
    launch, recv = SpawnProcess.start, Connection.recv

    def spy_launch(process):
        events.append(process.name)
        launch(process)

    def spy_recv(conn):
        events.append("port read")
        return recv(conn)

    monkeypatch.setattr(SpawnProcess, "start", spy_launch)
    monkeypatch.setattr(Connection, "recv", spy_recv)
    points = make_points(40)
    queries = make_queries(3)
    manifest = build_cluster_dir(
        points, cluster_spec(2), tmp_path / "c"
    )
    with ClusterManager(manifest, mode="process") as cluster:
        answers = routed_answers(cluster.router_port, queries, 3)
    assert events == ["repro-shard-0", "repro-shard-1", "port read", "port read"]
    assert_matches_reference(
        answers, partitioned_reference(points, 2), queries, 3
    )


def _record_process_shards(monkeypatch, kill=None):
    """Every :class:`ProcessShard` the manager launches, in order; the
    one numbered ``kill`` is SIGKILLed as soon as it is launched."""
    launched = []

    class Recorded(cluster_manager.ProcessShard):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            launched.append(self)
            if self.shard_id == kill:
                self.process.kill()

    monkeypatch.setattr(cluster_manager, "ProcessShard", Recorded)
    return launched


@pytest.mark.parametrize("failure,message", [
    ("truncated payload", "shard 1 failed to start"),
    ("killed at launch", r"shard 1 exited before reporting a port \(exit code -9\)"),
])
def test_failed_shard_start_stops_every_launched_shard(
    tmp_path, monkeypatch, failure, message
):
    manifest = build_cluster_dir(
        make_points(40), cluster_spec(2), tmp_path / "c"
    )
    if failure == "truncated payload":
        payload = manifest.shards[1].payload_path
        payload.write_bytes(payload.read_bytes()[:100])
    launched = _record_process_shards(
        monkeypatch, kill=1 if failure == "killed at launch" else None
    )
    with pytest.raises(RuntimeError, match=message):
        with ClusterManager(manifest, mode="process"):
            pass
    assert [shard.shard_id for shard in launched] == [0, 1]
    assert all(shard.process.exitcode is not None for shard in launched)
    assert not multiprocessing.active_children()


def test_shard_missing_the_spawn_timeout_is_killed_and_joined(
    tmp_path, monkeypatch
):
    manifest = build_cluster_dir(
        make_points(40), cluster_spec(2), tmp_path / "c"
    )
    monkeypatch.setattr(cluster_manager, "SPAWN_TIMEOUT_S", 0.0)
    launched = _record_process_shards(monkeypatch)
    cluster = ClusterManager(manifest, mode="process")
    with pytest.raises(RuntimeError, match="shard 0 did not report a port"):
        cluster.start()
    late, other = launched
    assert late.process.exitcode == -signal.SIGKILL
    assert other.process.exitcode is not None
    assert not multiprocessing.active_children()
    assert cluster.shards == [] and cluster.router_port is None


def test_thread_mode_kill_and_restart(tmp_path):
    # Same degradation contract without process spawn cost.
    manifest = build_cluster_dir(
        make_points(30), cluster_spec(2), tmp_path / "c"
    )
    query = make_queries(1)[0]
    with ClusterManager(manifest, mode="thread") as cluster:
        before = cluster.search(query, k=3)
        cluster.kill_shard(1)
        with pytest.raises(ServeError) as excinfo:
            cluster.search(query, k=3)
        assert excinfo.value.status == 503
        assert "shard 1" in excinfo.value.message
        cluster.restart_shard(1)
        assert cluster.search(query, k=3) == before


def test_manager_rejects_unknown_mode(tmp_path):
    manifest = build_cluster_dir(
        make_points(20), cluster_spec(1), tmp_path / "c"
    )
    with pytest.raises(ValueError, match="cluster mode"):
        ClusterManager(manifest, mode="fleet")


# ------------------------------------------------------------------------ CLI


def test_cli_cluster_split_only(tmp_path, capsys):
    payload = tmp_path / "part.idx"
    save_index(partitioned_reference(make_points(40), 2), payload)
    out = tmp_path / "c"
    rc = cli_main(
        ["cluster", str(payload), "--split-only", "--out", str(out),
         "--router-port", "9000"]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest.spec.num_shards == 2
    assert manifest.spec.router_port == 9000  # override persisted on split
    assert "cluster directory ready" in capsys.readouterr().out


def test_cli_cluster_refusals(tmp_path, capsys):
    payload = tmp_path / "part.idx"
    save_index(partitioned_reference(make_points(40), 2), payload)
    out = tmp_path / "c"
    assert cli_main(["cluster", str(payload), "--split-only", "--out", str(out)]) == 0
    capsys.readouterr()

    assert cli_main(["cluster", str(out), "--shards", "4", "--split-only"]) == 2
    assert "disagrees" in capsys.readouterr().err
    assert cli_main(["cluster", str(tmp_path / "nope.idx"), "--split-only"]) == 2
    assert "no such file" in capsys.readouterr().err
    assert cli_main(
        ["cluster", str(out), "--ports", "9001", "--split-only"]
    ) == 2
    assert "one port per shard" in capsys.readouterr().err
    flat = tmp_path / "flat.idx"
    save_index(build_index(SUB_SPEC).fit(make_points(20)), flat)
    assert cli_main(["cluster", str(flat), "--split-only"]) == 2
    assert "PartitionedP2HIndex" in capsys.readouterr().err


def test_cli_info_shows_shard_count(tmp_path, capsys):
    payload = tmp_path / "part.idx"
    save_index(partitioned_reference(make_points(40), 2), payload)
    assert cli_main(["info", str(payload)]) == 0
    out = capsys.readouterr().out
    assert "num_shards" in out
