"""Extension — sharded (partitioned) P2HNNS search.

Section III-A motivates Ball-Tree partly by its suitability for splitting
massive data sets into fine granularities for scalable and distributed
search.  This benchmark shards each workload into 1/2/4/8 partitions with
the paper's own seed-grow rule, builds one BC-Tree per shard, and measures
how exact query cost and indexing cost move with the shard count (per-shard
work shrinks, but every shard must be visited, so the merged exact search
pays a little extra per shard).  At every shard count it also checks that
``batch_search(n_jobs=2)`` — every shard's kernel on worker chunks plus
the block merge — returns the per-query ``search`` ids and distances.
"""

from __future__ import annotations

import numpy as np

from repro.core.partitioned import PartitionedP2HIndex
from repro.eval.metrics import average_recall
from repro.eval.reporting import print_and_save
from repro.utils.timing import Timer

from conftest import bench_scale_config, emit_bench_json

K = 10
PARTITION_COUNTS = (1, 2, 4, 8)


def test_partitioned_scaling(benchmark, workloads, results_dir):
    """Exact sharded search: recall stays 1.0 for every shard count, and
    the batch path equals the per-query path."""
    records = []
    for name, workload in workloads.items():
        truth_idx, _ = workload.truth(K)
        for num_partitions in PARTITION_COUNTS:
            index = PartitionedP2HIndex(
                num_partitions=num_partitions, random_state=0
            ).fit(workload.points)
            recalls = []
            times = []
            candidates = []
            sequential = []
            for query, truth in zip(workload.queries, truth_idx):
                with Timer() as timer:
                    result = index.search(query, k=K)
                times.append(timer.elapsed)
                candidates.append(result.stats.candidates_verified)
                recalls.append(average_recall([result], truth[None, :]))
                sequential.append(result)
            batch = index.batch_search(workload.queries, k=K, n_jobs=2)
            assert len(batch) == len(sequential)
            for got, expected in zip(batch, sequential):
                np.testing.assert_array_equal(got.indices, expected.indices)
                np.testing.assert_array_equal(got.distances, expected.distances)
            report = index.indexing_report()
            records.append(
                {
                    "dataset": name,
                    "num_partitions": num_partitions,
                    "recall": float(np.mean(recalls)),
                    "avg_query_ms": float(np.mean(times)) * 1000.0,
                    "avg_candidates": float(np.mean(candidates)),
                    "indexing_seconds": report["indexing_seconds"],
                    "index_size_mb": report["index_size_bytes"] / (1024.0 * 1024.0),
                }
            )
            # Exact merged search must keep full recall regardless of shards.
            assert records[-1]["recall"] == 1.0

    print()
    print_and_save(
        records,
        ["dataset", "num_partitions", "recall", "avg_query_ms", "avg_candidates",
         "indexing_seconds", "index_size_mb"],
        title="Extension: partitioned (sharded) exact search scaling",
        json_path=results_dir / "partitioned_scaling.json",
    )
    emit_bench_json(
        "partitioned_scaling",
        test="test_partitioned_scaling",
        config=bench_scale_config(
            k=K, partition_counts=list(PARTITION_COUNTS)
        ),
        metrics={
            "min_recall": min(r["recall"] for r in records),
            "max_query_ms": max(r["avg_query_ms"] for r in records),
        },
        records=records,
    )

    first = next(iter(workloads.values()))
    index = PartitionedP2HIndex(num_partitions=4, random_state=0).fit(first.points)
    query = first.queries[0]
    benchmark(lambda: index.search(query, k=K))
