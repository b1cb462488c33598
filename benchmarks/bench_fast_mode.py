"""Fast mode — float32 storage and one leaf admission rule vs the exact
block kernel.

The exact block kernel (:mod:`repro.engine.block`) is bound by its
bit-identity contract: no cross-query GEMM may feed a pruning decision, so
every leaf event runs per-query GEMVs and per-candidate Python-level top-k
offers.  The fast mode (:mod:`repro.engine.fast`) drops that contract —
float32 leaf-ordered storage, leaves admitted by their own bounds, GEMV
sweeps per row in blocks of at most ``ROW_SWEEP_LIMIT`` rows and
leaf-major GEMMs above — in exchange for an approximation budget of a few
float32 ulps at the hyperplane.

Four tests:

* the speedup floor pits ``FastTreeKernel.search_block`` directly against
  the exact ``BlockTraversalKernel.search_block`` (same engine, same
  normalized query block, ``n_jobs=1``) on the 4k-point clustered
  surrogate with a 4096-query block, and asserts >= 3x at full scale plus
  recall >= 0.999 against the exact oracle;
* the recall sweep checks every tree family stays above the same floor
  and that epsilon-recall (cancellation-aware, see
  :func:`repro.eval.metrics.epsilon_recall`) is 1.0 — i.e. every "miss"
  is a float32-rounding tie at the k-th boundary, never a pruning bug;
* the one-row leg times one-row ``search(q, exact=False)`` against
  one-row ``search(q)`` for every family — the per-query path the server
  and the cluster take for ``exact=False`` — asserts epsilon-recall 1.0,
  and at full scale asserts BC-Tree's one-row fast search is at least as
  fast as its one-row exact search;
* the rows-per-block leg cuts the same queries into blocks of 1 to 256
  rows, on both sides of ``ROW_SWEEP_LIMIT``, and records fast mode's
  ms/q at each height for BC-Tree and Ball-Tree.  It asserts
  epsilon-recall 1.0 and no speed floor.

Tiny smoke sizes (CI) only enforce a sanity floor on the speedup: the
GEMM amortization needs real tree depth and leaf width to show, and
sub-millisecond workloads flip on scheduler noise.
"""

from __future__ import annotations

import time

import numpy as np

from repro import BallTree, BCTree, KDTree
from repro.core.rp_tree import RPTree
from repro.datasets import random_hyperplane_queries
from repro.datasets.synthetic import clustered_gaussian
from repro.engine.kernels import kernel_backend
from repro.eval.metrics import epsilon_recall, recall_at_k
from repro.eval.reporting import print_and_save

from conftest import bench_num_points, emit_bench_json

K = 10

#: Query-block size of the floor test — the heavy-batch regime both the
#: exact kernel and the fast mode are built for.
FLOOR_QUERIES = 4096

#: Coarse leaves maximize leaf-event GEMM width, the regime the fast
#: kernel's cross-query verification amortizes best in.
FLOOR_LEAF_SIZE = 400

#: Required single-process speedup of the fast kernel over the exact
#: block kernel at full scale (>= 4000 points).
SPEEDUP_FLOOR = 3.0

#: Required plain set recall against the exact oracle.
RECALL_FLOOR = 0.999

#: Leaf size of the per-family tests.
FAMILY_LEAF_SIZE = 100

#: Queries of the one-row leg, each searched alone in every round.
ONE_ROW_QUERIES = 200

#: Required speed of BC-Tree's one-row fast search over its one-row exact
#: search at full scale (>= 4000 points).
ONE_ROW_FLOOR = 1.0

#: Queries of the rows-per-block leg, cut into blocks of each height; the
#: heights straddle ``repro.engine.fast.ROW_SWEEP_LIMIT`` (64).
BLOCK_HEIGHT_QUERIES = 512
BLOCK_HEIGHTS = (1, 8, 64, 65, 256)


def _floor_workload():
    num_points = min(bench_num_points(), 4000)
    points = clustered_gaussian(
        num_points, 20, num_clusters=8, cluster_radius=2.0,
        center_spread=8.0, rng=21,
    )
    queries = random_hyperplane_queries(points, FLOOR_QUERIES, rng=22)
    return num_points, points, queries


def _families():
    return {
        "Ball-Tree": BallTree(leaf_size=FAMILY_LEAF_SIZE, random_state=0),
        "BC-Tree": BCTree(leaf_size=FAMILY_LEAF_SIZE, random_state=0),
        "KD-Tree": KDTree(leaf_size=FAMILY_LEAF_SIZE),
        "RP-Tree": RPTree(leaf_size=FAMILY_LEAF_SIZE, random_state=0),
    }


def _recall_vs_exact(exact_results, fast_results, *, dim, max_point_norm):
    """(plain set recall, epsilon recall) of fast results vs the oracle."""
    abs_tol = dim * float(np.finfo(np.float32).eps) * max_point_norm
    plain = []
    eps = []
    for exact_r, fast_r in zip(exact_results, fast_results):
        plain.append(recall_at_k(fast_r.indices, exact_r.indices))
        eps.append(
            epsilon_recall(
                fast_r.distances, exact_r.distances, abs_tol=abs_tol
            )
        )
    return float(np.mean(plain)), float(np.mean(eps))


def test_fast_mode_speedup_floor(results_dir):
    """>= 3x kernel-level speedup over the exact block kernel (BC-Tree).

    Both sides run ``search_block`` on the same engine with the same
    pre-normalized query block, so the comparison isolates the kernels —
    exactly the work the ``exact=False`` dispatch replaces.  Interleaved
    best-of rounds keep a noisy-neighbor phase from penalizing one side.
    """
    num_points, points, queries = _floor_workload()
    floor = SPEEDUP_FLOOR if num_points >= 4000 else 1.0
    index = BCTree(leaf_size=FLOOR_LEAF_SIZE, random_state=0).fit(points)
    engine = index._engine()
    exact_kernel = engine.block_kernel()
    fast_kernel = engine.fast_kernel("float32")
    matrix = index._prepare_query_matrix(
        np.ascontiguousarray(queries, dtype=np.float64)
    )

    exact_results = None
    fast_results = None
    exact_seconds = float("inf")
    fast_seconds = float("inf")
    for _ in range(4):
        tic = time.perf_counter()
        exact_rep = exact_kernel.search_block(matrix, K)
        exact_elapsed = time.perf_counter() - tic
        if exact_elapsed < exact_seconds:
            exact_seconds, exact_results = exact_elapsed, exact_rep
        tic = time.perf_counter()
        fast_rep = fast_kernel.search_block(matrix, K)
        fast_elapsed = time.perf_counter() - tic
        if fast_elapsed < fast_seconds:
            fast_seconds, fast_results = fast_elapsed, fast_rep

    speedup = exact_seconds / fast_seconds if fast_seconds else 0.0
    max_norm = float(np.max(np.linalg.norm(index.points, axis=1)))
    plain_recall, eps_recall = _recall_vs_exact(
        exact_results, fast_results, dim=index.dim, max_point_norm=max_norm
    )

    record = {
        "method": "BC-Tree",
        "backend": kernel_backend(),
        "num_points": num_points,
        "num_queries": FLOOR_QUERIES,
        "leaf_size": FLOOR_LEAF_SIZE,
        "exact_ms": exact_seconds * 1000.0,
        "fast_ms": fast_seconds * 1000.0,
        "speedup_vs_exact_kernel": speedup,
        "recall_vs_exact": plain_recall,
        "epsilon_recall": eps_recall,
    }
    print()
    print_and_save(
        [record],
        list(record),
        title="Fast mode: float32 GEMM kernel vs exact block kernel",
        json_path=results_dir / "fast_mode_floor.json",
    )
    emit_bench_json(
        "fast_mode",
        test="test_fast_mode_speedup_floor",
        config={
            "num_points": num_points,
            "num_queries": FLOOR_QUERIES,
            "leaf_size": FLOOR_LEAF_SIZE,
            "k": K,
            "backend": kernel_backend(),
        },
        metrics={
            "exact_ms": exact_seconds * 1000.0,
            "fast_ms": fast_seconds * 1000.0,
            "speedup_vs_exact_kernel": speedup,
            "recall_vs_exact": plain_recall,
            "epsilon_recall": eps_recall,
            "floor": floor,
        },
        records=[record],
    )
    assert plain_recall >= RECALL_FLOOR, (
        f"fast mode recall {plain_recall:.5f} vs exact oracle is below "
        f"{RECALL_FLOOR}"
    )
    assert speedup >= floor, (
        f"fast kernel ({fast_seconds * 1000.0:.1f} ms) is only "
        f"{speedup:.2f}x the exact block kernel "
        f"({exact_seconds * 1000.0:.1f} ms); expected >= {floor}x"
    )


def test_fast_mode_recall_all_families(results_dir):
    """Recall floor for every tree family, plus epsilon-recall == 1.0."""
    num_points, points, queries = _floor_workload()
    block = queries[:512]
    records = []
    for name, index in _families().items():
        index.fit(points)
        exact_batch = index.batch_search(block, k=K)
        fast_batch = index.batch_search(block, k=K, exact=False)
        max_norm = float(np.max(np.linalg.norm(index.points, axis=1)))
        plain_recall, eps_recall = _recall_vs_exact(
            exact_batch, fast_batch, dim=index.dim, max_point_norm=max_norm
        )
        records.append(
            {
                "method": name,
                "num_points": num_points,
                "num_queries": len(block),
                "recall_vs_exact": plain_recall,
                "epsilon_recall": eps_recall,
            }
        )
        assert plain_recall >= RECALL_FLOOR, (
            f"{name}: fast mode recall {plain_recall:.5f} below {RECALL_FLOOR}"
        )
        # Every residual set-miss must be a float32 tie at the k-th
        # boundary: within the cancellation bound, recall is perfect.
        assert eps_recall == 1.0, (
            f"{name}: epsilon recall {eps_recall:.5f} < 1.0 — a fast-mode "
            f"miss exceeded the float32 cancellation bound"
        )

    print()
    print_and_save(
        records,
        ["method", "num_points", "num_queries", "recall_vs_exact",
         "epsilon_recall"],
        title="Fast mode: recall vs the exact oracle, all tree families",
        json_path=results_dir / "fast_mode_recall.json",
    )
    emit_bench_json(
        "fast_mode",
        test="test_fast_mode_recall_all_families",
        config={
            "num_points": num_points,
            "num_queries": len(block),
            "k": K,
            "backend": kernel_backend(),
        },
        metrics={
            "min_recall_vs_exact": min(
                r["recall_vs_exact"] for r in records
            ),
            "min_epsilon_recall": min(r["epsilon_recall"] for r in records),
        },
        records=records,
    )


def test_fast_mode_one_row_all_families(results_dir):
    """One-row fast ``search`` against one-row exact ``search``, per family.

    A one-row block never reaches the fast kernel's cross-query GEMMs: the
    kernel finishes it with one leaf sweep.  Both modes answer the same
    queries one ``search`` call at a time, in interleaved best-of rounds,
    so a noisy-neighbor phase cannot penalize one side only.
    """
    num_points, points, queries = _floor_workload()
    queries = queries[:ONE_ROW_QUERIES]
    floor = ONE_ROW_FLOOR if num_points >= 4000 else 0.0
    records = []
    for name, index in _families().items():
        index.fit(points)
        index.search(queries[0], k=K)
        index.search(queries[0], k=K, exact=False)
        exact_seconds = fast_seconds = float("inf")
        for _ in range(5):
            tic = time.perf_counter()
            exact_results = [index.search(q, k=K) for q in queries]
            exact_seconds = min(exact_seconds, time.perf_counter() - tic)
            tic = time.perf_counter()
            fast_results = [index.search(q, k=K, exact=False) for q in queries]
            fast_seconds = min(fast_seconds, time.perf_counter() - tic)
        max_norm = float(np.max(np.linalg.norm(index.points, axis=1)))
        plain_recall, eps_recall = _recall_vs_exact(
            exact_results, fast_results, dim=index.dim, max_point_norm=max_norm
        )
        records.append(
            {
                "method": name,
                "num_points": num_points,
                "num_queries": len(queries),
                "leaf_size": FAMILY_LEAF_SIZE,
                "exact_ms_per_query": exact_seconds * 1000.0 / len(queries),
                "fast_ms_per_query": fast_seconds * 1000.0 / len(queries),
                "fast_speed_over_exact": exact_seconds / fast_seconds,
                "recall_vs_exact": plain_recall,
                "epsilon_recall": eps_recall,
            }
        )
        assert eps_recall == 1.0, (
            f"{name}: one-row fast epsilon recall {eps_recall:.5f} < 1.0"
        )

    print()
    print_and_save(
        records,
        list(records[0]),
        title="Fast mode: one-row search, fast vs exact, all tree families",
        json_path=results_dir / "fast_mode_one_row.json",
    )
    bc = next(r for r in records if r["method"] == "BC-Tree")
    emit_bench_json(
        "fast_mode",
        test="test_fast_mode_one_row_all_families",
        config={
            "num_points": num_points,
            "num_queries": len(queries),
            "leaf_size": FAMILY_LEAF_SIZE,
            "k": K,
            "backend": kernel_backend(),
        },
        metrics={
            "bc_exact_ms_per_query": bc["exact_ms_per_query"],
            "bc_fast_ms_per_query": bc["fast_ms_per_query"],
            "bc_fast_speed_over_exact": bc["fast_speed_over_exact"],
            "min_epsilon_recall": min(r["epsilon_recall"] for r in records),
            "floor": floor,
        },
        records=records,
    )
    assert bc["fast_speed_over_exact"] >= floor, (
        f"BC-Tree one-row fast search ({bc['fast_ms_per_query']:.3f} ms/q) "
        f"is only {bc['fast_speed_over_exact']:.2f}x its one-row exact "
        f"search ({bc['exact_ms_per_query']:.3f} ms/q); expected >= {floor}x"
    )


def test_fast_mode_rows_per_block(results_dir):
    """Fast ``batch_search`` ms/q by rows per block, BC-Tree and Ball-Tree.

    Every height answers the same queries; the heights take turns inside
    each round, and each keeps its best round.  Blocks of at most 64 rows
    run per-row sweeps, taller ones the leaf-major passes.
    """
    num_points, points, queries = _floor_workload()
    queries = queries[:BLOCK_HEIGHT_QUERIES]
    records = []
    for name in ("BC-Tree", "Ball-Tree"):
        index = _families()[name].fit(points)
        exact = index.batch_search(queries, k=K)
        max_norm = float(np.max(np.linalg.norm(index.points, axis=1)))
        seconds = dict.fromkeys(BLOCK_HEIGHTS, float("inf"))
        answers = {}
        for _ in range(3):
            for height in BLOCK_HEIGHTS:
                tic = time.perf_counter()
                rows = []
                for start in range(0, len(queries), height):
                    rows.extend(
                        index.batch_search(
                            queries[start: start + height], k=K, exact=False
                        )
                    )
                seconds[height] = min(
                    seconds[height], time.perf_counter() - tic
                )
                answers[height] = rows
        for height in BLOCK_HEIGHTS:
            _, eps_recall = _recall_vs_exact(
                exact, answers[height], dim=index.dim, max_point_norm=max_norm
            )
            records.append(
                {
                    "method": name,
                    "rows_per_block": height,
                    "num_queries": len(queries),
                    "fast_ms_per_query": seconds[height] * 1000.0
                    / len(queries),
                    "epsilon_recall": eps_recall,
                }
            )
            assert eps_recall == 1.0, (
                f"{name}: {height}-row blocks reached epsilon recall "
                f"{eps_recall:.5f} < 1.0"
            )

    print()
    print_and_save(
        records,
        list(records[0]),
        title="Fast mode: ms/q by rows per block",
        json_path=results_dir / "fast_mode_rows_per_block.json",
    )
    emit_bench_json(
        "fast_mode",
        test="test_fast_mode_rows_per_block",
        config={
            "num_points": num_points,
            "num_queries": len(queries),
            "leaf_size": FAMILY_LEAF_SIZE,
            "k": K,
            "rows_per_block": list(BLOCK_HEIGHTS),
            "backend": kernel_backend(),
        },
        metrics={
            "{}_{}_rows_ms_per_query".format(
                r["method"].lower().replace("-", "_"), r["rows_per_block"]
            ): r["fast_ms_per_query"]
            for r in records
        },
        records=records,
    )
