"""Extension — exact tree ``batch_search`` throughput (Ball/BC/KD).

Every tree index answers queries with the block traversal kernel
(:mod:`repro.engine.block`): ``search`` runs it on a one-row block, and
``batch_search`` runs the same one-row descent on every row of each
worker's chunk, so results and work counters are bit-identical to a loop
of one-row ``search`` by construction.  A block saves only the per-call
work around the descents (option checks, query validation and
normalization, the kernel's set-up) and, with ``n_jobs > 1``, runs chunks
in parallel.

The dataset sweep records queries/second for Ball-Tree, BC-Tree and
KD-Tree across the configured surrogates and ``n_jobs in {1, 2, 4}``,
beside the one-row loop (``[index.search(q) for q in queries]``), and
asserts bit-identity of results *and* ``SearchStats`` against it.  It is
the one benchmark that records in-process exact KD-Tree ``batch_search``
throughput; no speedup floor is asserted.
"""

from __future__ import annotations

from repro import BallTree, BCTree, KDTree
from repro.eval.reporting import print_and_save

from conftest import (
    assert_block_matches_sequential as _assert_block_matches_sequential,
    bench_scale_config,
    emit_bench_json,
    measure_batch_throughput,
    measure_loop_throughput,
)

K = 10
N_JOBS_GRID = (1, 2, 4)


def _methods():
    return {
        "Ball-Tree": lambda: BallTree(leaf_size=100, random_state=0),
        "BC-Tree": lambda: BCTree(leaf_size=100, random_state=0),
        "KD-Tree": lambda: KDTree(leaf_size=100),
    }


def test_tree_block_kernel_throughput(benchmark, workloads, results_dir):
    """Block-kernel batch throughput vs the one-row ``search`` loop."""
    records = []
    for name, workload in workloads.items():
        for method, factory in _methods().items():
            index = factory().fit(workload.points)
            loop_qps = measure_loop_throughput(
                index, workload.queries, K, repeats=2
            )
            sequential = [index.search(q, k=K) for q in workload.queries]
            for n_jobs in N_JOBS_GRID:
                qps, batch = measure_batch_throughput(
                    index, workload.queries, K, n_jobs, repeats=2
                )
                _assert_block_matches_sequential(batch, sequential)
                records.append(
                    {
                        "dataset": name,
                        "method": method,
                        "n_jobs": n_jobs,
                        "workers": batch.n_jobs,
                        "batch_qps": qps,
                        "loop_qps": loop_qps,
                        "speedup_vs_loop": qps / loop_qps if loop_qps else 0.0,
                        "avg_candidates": batch.stats.candidates_verified
                        / max(len(batch), 1),
                    }
                )
                assert qps > 0.0

    print()
    print_and_save(
        records,
        [
            "dataset",
            "method",
            "n_jobs",
            "workers",
            "batch_qps",
            "loop_qps",
            "speedup_vs_loop",
            "avg_candidates",
        ],
        title="Extension: block traversal kernel throughput (queries/second)",
        json_path=results_dir / "tree_block_kernel.json",
    )
    emit_bench_json(
        "tree_block_kernel",
        test="test_tree_block_kernel_throughput",
        config=bench_scale_config(k=K),
        metrics={
            "max_speedup_vs_loop": max(
                r["speedup_vs_loop"] for r in records
            ),
        },
        records=records,
    )

    first = next(iter(workloads.values()))
    index = BCTree(leaf_size=100, random_state=0).fit(first.points)
    benchmark(lambda: index.batch_search(first.queries, k=K, n_jobs=1))
