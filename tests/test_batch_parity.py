"""Batched search must be bit-identical to sequential per-query search.

This is the engine's central guarantee: for every index, ``batch_search``
with any ``n_jobs`` returns exactly the indices and distances that
sequential ``search`` calls produce — including under candidate budgets,
where an ulp-level perturbation of an inner product could otherwise change
*which* candidates get verified (which is why the batch seed matmul never
feeds traversal; see :mod:`repro.engine.batch`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BallTree,
    BCTree,
    DynamicP2HIndex,
    FHIndex,
    KDTree,
    LinearScan,
    NHIndex,
    PartitionedP2HIndex,
)
from repro.core.best_first import BestFirstSearcher
from repro.core.mips import BallTreeMIPS, linear_mips_batch
from repro.engine.batch import BatchSearchResult
from repro.hashing import AngularHyperplaneHash, MultilinearHyperplaneHash

K = 10


@pytest.fixture(autouse=True)
def force_worker_pools(monkeypatch):
    """Pretend the machine has many cores so the pool paths really run.

    ``execute_batch`` caps the pool at ``os.cpu_count()``; without this the
    parity tests would silently degrade to the inline path on small CI
    machines and stop covering the worker-pool plumbing.
    """
    import repro.engine.batch as batch_module

    monkeypatch.setattr(batch_module.os, "cpu_count", lambda: 8)


def _assert_bit_identical(batch, sequential):
    assert isinstance(batch, BatchSearchResult)
    assert len(batch) == len(sequential)
    for got, expected in zip(batch, sequential):
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.distances, expected.distances)


def _index_factories(seed_data_dim):
    """Every index family the library ships, at small test scale."""
    return {
        "ball": lambda: BallTree(leaf_size=40, random_state=0),
        "bc": lambda: BCTree(leaf_size=40, random_state=0),
        "bc_sequential": lambda: BCTree(
            leaf_size=40, random_state=0, scan_mode="sequential"
        ),
        "kd": lambda: KDTree(leaf_size=40),
        "linear": lambda: LinearScan(),
        "nh": lambda: NHIndex(
            num_tables=8, sample_dim=2 * seed_data_dim, random_state=0
        ),
        "fh": lambda: FHIndex(
            num_tables=8,
            num_partitions=2,
            sample_dim=2 * seed_data_dim,
            random_state=0,
        ),
        "bh": lambda: MultilinearHyperplaneHash(
            "bh", num_tables=8, bits_per_table=4, random_state=0
        ),
        "mh": lambda: MultilinearHyperplaneHash(
            "mh", order=2, num_tables=8, bits_per_table=4, random_state=0
        ),
        "ah": lambda: AngularHyperplaneHash(
            "ah", num_tables=8, bits_per_table=4, random_state=0
        ),
        "eh": lambda: AngularHyperplaneHash(
            "eh", num_tables=8, bits_per_table=4, random_state=0
        ),
    }


@pytest.fixture(scope="module")
def fitted_indexes(small_clustered_data):
    dim = small_clustered_data.shape[1] + 1
    return {
        name: factory().fit(small_clustered_data)
        for name, factory in _index_factories(dim).items()
    }


class TestBatchParity:
    @pytest.mark.parametrize(
        "name",
        ["ball", "bc", "bc_sequential", "kd", "linear", "nh", "fh", "bh",
         "mh", "ah", "eh"],
    )
    def test_parallel_batch_matches_sequential(self, fitted_indexes,
                                               small_queries, name):
        index = fitted_indexes[name]
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=4)
        _assert_bit_identical(batch, sequential)

    @pytest.mark.parametrize("name", ["ball", "bc", "kd"])
    @pytest.mark.parametrize("candidate_fraction", [0.05, 0.3])
    def test_parity_under_budget(self, fitted_indexes, small_queries, name,
                                 candidate_fraction):
        """Budgets make results order-sensitive; parity must still hold."""
        index = fitted_indexes[name]
        sequential = [
            index.search(q, k=K, candidate_fraction=candidate_fraction)
            for q in small_queries
        ]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=4, candidate_fraction=candidate_fraction
        )
        _assert_bit_identical(batch, sequential)

    @pytest.mark.parametrize("n_jobs", [None, 1, 2, 4])
    def test_parity_across_pool_sizes(self, fitted_indexes, small_queries,
                                      n_jobs):
        index = fitted_indexes["bc"]
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=n_jobs)
        _assert_bit_identical(batch, sequential)

    def test_partitioned_parity(self, small_clustered_data, small_queries):
        index = PartitionedP2HIndex(num_partitions=4, random_state=0).fit(
            small_clustered_data
        )
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=4)
        _assert_bit_identical(batch, sequential)

    def test_partitioned_parity_under_budget(self, small_clustered_data,
                                             small_queries):
        index = PartitionedP2HIndex(num_partitions=4, random_state=0).fit(
            small_clustered_data
        )
        sequential = [
            index.search(q, k=K, candidate_fraction=0.2) for q in small_queries
        ]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=4, candidate_fraction=0.2
        )
        _assert_bit_identical(batch, sequential)

    def test_dynamic_parity(self, small_clustered_data, small_queries):
        index = DynamicP2HIndex(random_state=0)
        ids = index.insert(small_clustered_data)
        index.delete(ids[:25])
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=4)
        _assert_bit_identical(batch, sequential)

    def test_best_first_parity(self, small_clustered_data, small_queries):
        tree = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        searcher = BestFirstSearcher(tree)
        sequential = [searcher.search(q, k=K) for q in small_queries]
        batch = searcher.batch_search(small_queries, k=K, n_jobs=4)
        _assert_bit_identical(batch, sequential)

    def test_mips_parity(self, gaussian_blob, rng):
        index = BallTreeMIPS(leaf_size=32, random_state=1).fit(gaussian_blob)
        queries = rng.normal(size=(6, gaussian_blob.shape[1]))
        for absolute in (False, True):
            search = index.search_absolute if absolute else index.search
            sequential = [search(q, k=5) for q in queries]
            batch = index.batch_search(queries, k=5, n_jobs=3, absolute=absolute)
            _assert_bit_identical(batch, sequential)

    def test_process_executor_parity(self, small_clustered_data,
                                     small_queries):
        """Forked workers run the same per-query code: still bit-identical."""
        index = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=2, executor="process"
        )
        _assert_bit_identical(batch, sequential)


class TestHashingKernelParity:
    """The hashing indexes are answered by the vectorized whole-batch
    kernel (chunked across workers), not a per-query pool; results must
    still be bit-identical to sequential ``search`` for every ``n_jobs``
    and every query-time override."""

    @pytest.mark.parametrize("name", ["nh", "fh", "bh", "mh", "ah", "eh"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_parity_across_pool_sizes(self, fitted_indexes, small_queries,
                                      name, n_jobs):
        index = fitted_indexes[name]
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=n_jobs)
        _assert_bit_identical(batch, sequential)

    @pytest.mark.parametrize("name", ["nh", "fh"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"probes_per_table": 4},
            {"probes_per_table": 400},
            {"num_tables": 3},
            {"probes_per_table": 16, "num_tables": 2},
        ],
    )
    def test_parity_under_probe_overrides(self, fitted_indexes, small_queries,
                                          name, n_jobs, overrides):
        """probes_per_table / num_tables change the candidate sets; the
        kernel must apply them exactly like the sequential path."""
        index = fitted_indexes[name]
        sequential = [
            index.search(q, k=K, **overrides) for q in small_queries
        ]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=n_jobs, **overrides
        )
        _assert_bit_identical(batch, sequential)

    @pytest.mark.parametrize("name", ["nh", "fh"])
    def test_process_executor_parity(self, fitted_indexes, small_queries,
                                     name):
        index = fitted_indexes[name]
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=2, executor="process"
        )
        _assert_bit_identical(batch, sequential)

    @pytest.mark.parametrize("name", ["nh", "fh", "bh", "ah"])
    def test_pooled_stats_match_sequential_sum(self, fitted_indexes,
                                               small_queries, name):
        index = fitted_indexes[name]
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=4)
        assert batch.stats.buckets_probed == sum(
            r.stats.buckets_probed for r in sequential
        )
        assert batch.stats.candidates_verified == sum(
            r.stats.candidates_verified for r in sequential
        )
        assert all(r.stats.elapsed_seconds > 0.0 for r in batch)

    def test_kernel_rejects_unknown_kwargs(self, fitted_indexes,
                                           small_queries):
        with pytest.raises(TypeError):
            fitted_indexes["nh"].batch_search(
                small_queries, k=K, candidate_fraction=0.5
            )

    def test_single_query_promotion(self, fitted_indexes, small_queries):
        """A single vector goes through the kernel path like a 1-row batch."""
        index = fitted_indexes["nh"]
        expected = index.search(small_queries[0], k=K)
        batch = index.batch_search(small_queries[0], k=K)
        assert len(batch) == 1
        np.testing.assert_array_equal(batch[0].indices, expected.indices)
        np.testing.assert_array_equal(batch[0].distances, expected.distances)

    def test_kernel_sub_blocking_invisible(self, fitted_indexes,
                                           small_queries, monkeypatch):
        """The kernel's internal memory-bounding sub-blocks must not change
        results (every step is per-row independent)."""
        import repro.hashing.base as hashing_base

        index = fitted_indexes["fh"]
        expected = [index.search(q, k=K) for q in small_queries]
        monkeypatch.setattr(hashing_base, "KERNEL_BLOCK_QUERIES", 3)
        batch = index.batch_search(small_queries, k=K)
        _assert_bit_identical(batch, expected)

    @pytest.mark.parametrize("name", ["bh", "ah"])
    def test_legacy_tuple_key_pickles_migrate(self, fitted_indexes,
                                              small_queries, name):
        """Pickles saved with the old tuple-of-bits bucket keys must keep
        returning results after load (keys are migrated to bytes)."""
        import pickle

        index = fitted_indexes[name]
        expected = [index.search(q, k=K) for q in small_queries]
        legacy = pickle.loads(pickle.dumps(index))
        legacy._tables = [
            {
                tuple(int(b) for b in np.frombuffer(key, dtype=bool)): value
                for key, value in table.items()
            }
            for table in legacy._tables
        ]
        migrated = pickle.loads(pickle.dumps(legacy))
        for query, exp in zip(small_queries, expected):
            got = migrated.search(query, k=K)
            np.testing.assert_array_equal(got.indices, exp.indices)
            np.testing.assert_array_equal(got.distances, exp.distances)


class TestTreeKernelParity:
    """The tree indexes are answered by the block traversal kernel
    (chunked per worker), not a per-query pool; results AND work counters
    must be bit-identical to sequential ``search`` for every ``n_jobs``
    and every internal blocking configuration."""

    COUNTERS = (
        "nodes_visited",
        "center_inner_products",
        "candidates_verified",
        "points_pruned_ball",
        "points_pruned_cone",
        "leaves_scanned",
        "buckets_probed",
    )

    def _assert_stats_equal(self, batch, sequential):
        _assert_bit_identical(batch, sequential)
        for got, expected in zip(batch, sequential):
            for field in self.COUNTERS:
                assert getattr(got.stats, field) == getattr(
                    expected.stats, field
                ), field

    @pytest.mark.parametrize("name", ["ball", "bc", "kd"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_work_counters_pinned_to_per_query_path(self, fitted_indexes,
                                                    small_queries, name,
                                                    n_jobs):
        """Regression: the block kernel's probe/work counters must equal
        the per-query path's exactly — the kernel preserves each query's
        solo DFS visit order precisely so the counters cannot drift."""
        index = fitted_indexes[name]
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=n_jobs)
        self._assert_stats_equal(batch, sequential)

    def test_kernel_sub_blocking_invisible(self, fitted_indexes,
                                           small_queries, monkeypatch):
        """The kernel's internal query sub-blocks must not change results
        (queries are mutually independent)."""
        import repro.engine.block as block_module

        index = fitted_indexes["bc"]
        expected = [index.search(q, k=K) for q in small_queries]
        monkeypatch.setattr(block_module, "BLOCK_QUERIES", 3)
        batch = index.batch_search(small_queries, k=K)
        self._assert_stats_equal(batch, expected)

    @pytest.mark.parametrize("cutoff", [0, 10_000])
    def test_scalar_and_vectorized_paths_agree(self, fitted_indexes,
                                               small_queries, monkeypatch,
                                               cutoff):
        """Forcing the fully vectorized frontier (cutoff 0) and the all-
        scalar descent (huge cutoff) must both match sequential search —
        the two implementations compute the same floats."""
        import repro.engine.block as block_module

        index = fitted_indexes["bc"]
        expected = [index.search(q, k=K) for q in small_queries]
        monkeypatch.setattr(block_module, "SCALAR_GROUP_CUTOFF", cutoff)
        batch = index.batch_search(small_queries, k=K)
        self._assert_stats_equal(batch, expected)

    @pytest.mark.parametrize("name", ["ball", "bc", "kd"])
    def test_process_executor_parity(self, fitted_indexes, small_queries,
                                     name):
        """Forked workers run the same block kernel on their chunks."""
        index = fitted_indexes[name]
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=2, executor="process"
        )
        self._assert_stats_equal(batch, sequential)

    def test_every_tree_mode_reaches_the_block_kernel(
            self, fitted_indexes, small_queries, monkeypatch):
        """There is one tree traversal: sequential ``search``, profiling,
        the sequential BC leaf scan and best-first order all run
        ``BlockTraversalKernel.search_block``."""
        from repro.core.best_first import BestFirstSearcher
        from repro.engine.block import BlockTraversalKernel

        calls = []
        original = BlockTraversalKernel.search_block

        def spy(self, matrix, k, **kwargs):
            calls.append((matrix.shape[0], kwargs.get("order"),
                          kwargs.get("profile", False)))
            return original(self, matrix, k, **kwargs)

        monkeypatch.setattr(BlockTraversalKernel, "search_block", spy)
        query = small_queries[0]
        for name in ("ball", "bc", "kd", "bc_sequential"):
            fitted_indexes[name].search(query, k=K)
        fitted_indexes["bc"].search(query, k=K, profile=True)
        fitted_indexes["bc"].batch_search(small_queries, k=K, profile=True)
        fitted_indexes["bc_sequential"].batch_search(small_queries, k=K)
        BestFirstSearcher(fitted_indexes["bc"]).search(query, k=K)
        assert calls == [
            (1, None, False),
            (1, None, False),
            (1, None, False),
            (1, None, False),
            (1, None, True),
            (len(small_queries), None, True),
            (len(small_queries), None, False),
            (1, "best_first", False),
        ]

    def test_supported_options_use_the_kernel(self, fitted_indexes,
                                              small_queries, monkeypatch):
        """Default exact AND budgeted batches go through the block kernel."""
        from repro.engine.block import BlockTraversalKernel

        calls = []
        original = BlockTraversalKernel.search_block

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BlockTraversalKernel, "search_block", spy)
        for name in ("ball", "bc", "kd"):
            fitted_indexes[name].batch_search(small_queries, k=K)
            fitted_indexes[name].batch_search(
                small_queries, k=K, candidate_fraction=0.2
            )
            fitted_indexes[name].batch_search(
                small_queries, k=K, max_candidates=30
            )
        assert len(calls) == 9

    @pytest.mark.parametrize("name", ["ball", "bc", "kd"])
    @pytest.mark.parametrize(
        "budget_kwargs",
        [
            {"candidate_fraction": 0.02},  # budget < num_nodes: lazy values
            {"candidate_fraction": 0.3},   # budget >= num_nodes: eager
            {"max_candidates": 7},
            {"max_candidates": 10_000},    # budget > n
        ],
    )
    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_budgeted_kernel_parity_with_counters(
            self, fitted_indexes, small_queries, name, budget_kwargs, n_jobs):
        """Budgeted batches dispatch through the kernel and stay
        bit-identical — results and every work counter — to per-query
        budgeted ``search``, in both node-value strategies."""
        from repro.engine.batch import kernel_dispatch_path

        index = fitted_indexes[name]
        assert kernel_dispatch_path(index, **budget_kwargs) == "kernel"
        sequential = [
            index.search(q, k=K, **budget_kwargs) for q in small_queries
        ]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=n_jobs, **budget_kwargs
        )
        self._assert_stats_equal(batch, sequential)

    def test_kernel_dispatch_path(self, fitted_indexes):
        """Every tree option runs a kernel; only kernel-less indexes go
        per-query."""
        from repro.engine.batch import kernel_dispatch_path

        bc = fitted_indexes["bc"]
        assert kernel_dispatch_path(bc) == "kernel"
        assert kernel_dispatch_path(bc, candidate_fraction=0.1) == "kernel"
        assert kernel_dispatch_path(bc, max_candidates=5) == "kernel"
        assert kernel_dispatch_path(bc, profile=True) == "kernel"
        assert kernel_dispatch_path(bc, exact=False) == "fast-gemm"
        assert kernel_dispatch_path(fitted_indexes["bc_sequential"]) == "kernel"
        assert kernel_dispatch_path(fitted_indexes["linear"]) == "per-query"
        assert kernel_dispatch_path(fitted_indexes["nh"]) == "kernel"

    @pytest.mark.parametrize("name", ["ball", "bc", "kd"])
    def test_explicit_default_options_accepted(self, fitted_indexes,
                                               small_queries, name):
        """Regression: explicitly passing a supported option's default
        (e.g. ``candidate_fraction=None``) must behave exactly like
        omitting it — the kernel dispatch may not crash on it."""
        index = fitted_indexes[name]
        expected = index.batch_search(small_queries, k=K)
        kwargs = {"candidate_fraction": None, "max_candidates": None}
        if name != "kd":
            kwargs.update(branch_preference=None, profile=False)
        batch = index.batch_search(small_queries, k=K, **kwargs)
        _assert_bit_identical(batch, expected)

    def test_tree_kernel_rejects_unknown_kwargs(self, fitted_indexes,
                                                small_queries):
        """Unknown options raise ``TypeError`` from the kernel, exactly as
        from ``search``."""
        with pytest.raises(TypeError, match="KDTree.search got unexpected"):
            fitted_indexes["kd"].batch_search(
                small_queries, k=K, probes_per_table=3
            )
        with pytest.raises(TypeError):
            fitted_indexes["ball"].batch_search(
                small_queries, k=K, not_an_option=1
            )

    def test_branch_preference_override_through_kernel(self, fitted_indexes,
                                                       small_queries):
        index = fitted_indexes["bc"]
        sequential = [
            index.search(q, k=K, branch_preference="lower_bound")
            for q in small_queries
        ]
        batch = index.batch_search(
            small_queries, k=K, branch_preference="lower_bound"
        )
        self._assert_stats_equal(batch, sequential)


class TestCompositeEngineParity:
    """Dynamic and partitioned indexes route through the engine — the
    dynamic wrapper as per-query dispatch over its static core, the
    partitioned index by fanning every shard's batch through the shard's
    own kernel — and must stay bit-identical to sequential search across
    pool sizes, executors, and update states."""

    @pytest.mark.parametrize("n_jobs", [None, 1, 2, 4])
    def test_partitioned_parity_across_pool_sizes(self, small_clustered_data,
                                                  small_queries, n_jobs):
        index = PartitionedP2HIndex(num_partitions=3, random_state=0).fit(
            small_clustered_data
        )
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=n_jobs)
        _assert_bit_identical(batch, sequential)

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "ball"])
    def test_partitioned_parity_per_strategy(self, small_clustered_data,
                                             small_queries, strategy):
        index = PartitionedP2HIndex(
            num_partitions=4, strategy=strategy, random_state=0
        ).fit(small_clustered_data)
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=2)
        _assert_bit_identical(batch, sequential)

    def test_partitioned_ball_tree_shards_through_kernel(
            self, small_clustered_data, small_queries):
        """Ball-Tree shards answer the whole batch via the block kernel."""
        index = PartitionedP2HIndex(
            num_partitions=3,
            index_factory=lambda: BallTree(leaf_size=32, random_state=1),
            random_state=0,
        ).fit(small_clustered_data)
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=2)
        _assert_bit_identical(batch, sequential)

    def test_partitioned_pooled_stats_match_sequential_sum(
            self, small_clustered_data, small_queries):
        index = PartitionedP2HIndex(num_partitions=4, random_state=0).fit(
            small_clustered_data
        )
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=2)
        assert batch.stats.candidates_verified == sum(
            r.stats.candidates_verified for r in sequential
        )
        assert batch.stats.nodes_visited == sum(
            r.stats.nodes_visited for r in sequential
        )

    def test_partitioned_block_merge_matches_collector_loop(
            self, small_clustered_data, small_queries):
        """Regression: the vectorized per-row merge must equal the old
        per-query collector loop exactly — including on duplicate-heavy
        data where tied distances cross shard boundaries, and under
        budgets where rows come back shorter than k."""
        from repro.core.partitioned import merge_shard_row
        from repro.core.results import SearchStats

        # Exact duplicates across shards force cross-shard distance ties
        # at (and inside) the top-k boundary.
        data = np.vstack([small_clustered_data[:200],
                          small_clustered_data[:120]])
        for kwargs in ({}, {"max_candidates": 4}, {"candidate_fraction": 0.1}):
            index = PartitionedP2HIndex(
                num_partitions=4, strategy="round_robin", random_state=0
            ).fit(data)
            shard_batches = [
                shard.batch_search(
                    np.vstack([q[None, :] for q in small_queries]),
                    k=min(K, int(ids.size)),
                    **kwargs,
                )
                for shard, ids in zip(index.shards, index.shard_point_ids)
            ]
            got = index._merge_shard_batches(
                shard_batches, K, len(small_queries)
            )
            for row in range(len(small_queries)):
                expected = merge_shard_row(
                    [batch[row] for batch in shard_batches],
                    index.shard_point_ids,
                    K,
                ).to_result(SearchStats())
                np.testing.assert_array_equal(
                    got[row].indices, expected.indices
                )
                np.testing.assert_array_equal(
                    got[row].distances, expected.distances
                )

    def test_partitioned_effective_n_jobs(self, small_clustered_data,
                                          small_queries):
        """The batch reports the pool the shards actually ran with —
        also for empty batches and heterogeneous shard pools."""
        from repro.core.partitioned import effective_pool_size

        index = PartitionedP2HIndex(num_partitions=3, random_state=0).fit(
            small_clustered_data
        )
        batch = index.batch_search(small_queries, k=K, n_jobs=4)
        assert batch.n_jobs == 4
        empty = index.batch_search(
            np.empty((0, small_queries.shape[1])), k=K, n_jobs=2
        )
        assert len(empty) == 0
        assert empty.n_jobs == 2
        # no shard batches at all (defensive default)
        assert effective_pool_size([]) == 1

        class _Stub:
            def __init__(self, n_jobs):
                self.n_jobs = n_jobs

        # heterogeneous pools: report the peak parallelism of the call
        assert effective_pool_size([_Stub(1), _Stub(3), _Stub(2)]) == 3

    @pytest.mark.parametrize("n_jobs", [None, 1, 2, 4])
    def test_dynamic_parity_across_pool_sizes(self, small_clustered_data,
                                              small_queries, n_jobs):
        index = DynamicP2HIndex(random_state=0)
        ids = index.insert(small_clustered_data)
        index.delete(ids[:40])
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=n_jobs)
        _assert_bit_identical(batch, sequential)

    def test_dynamic_parity_through_update_states(self, small_clustered_data,
                                                  small_queries):
        """Parity must hold in every wrapper state: fresh buffer, mixed
        buffer + tombstones, and right after an explicit rebuild."""
        index = DynamicP2HIndex(random_state=0, auto_rebuild=False)
        ids = index.insert(small_clustered_data[:400])
        states = []
        states.append("buffer-only")
        self._check_state(index, small_queries)
        index.rebuild()
        index.insert(small_clustered_data[400:])
        index.delete(ids[:25])
        states.append("mixed")
        self._check_state(index, small_queries)
        index.rebuild()
        states.append("rebuilt")
        self._check_state(index, small_queries)
        assert states == ["buffer-only", "mixed", "rebuilt"]

    def _check_state(self, index, queries):
        sequential = [index.search(q, k=K) for q in queries]
        batch = index.batch_search(queries, k=K, n_jobs=2)
        _assert_bit_identical(batch, sequential)

    def test_dynamic_parity_with_budget_kwargs(self, small_clustered_data,
                                               small_queries):
        """Search options forwarded through the wrapper reach the static
        core identically on both paths."""
        index = DynamicP2HIndex(random_state=0)
        index.insert(small_clustered_data)
        sequential = [
            index.search(q, k=K, candidate_fraction=0.4)
            for q in small_queries
        ]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=2, candidate_fraction=0.4
        )
        _assert_bit_identical(batch, sequential)

    def test_dynamic_process_executor_parity(self, small_clustered_data,
                                             small_queries):
        index = DynamicP2HIndex(random_state=0)
        ids = index.insert(small_clustered_data)
        index.delete(ids[-30:])
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(
            small_queries, k=K, n_jobs=2, executor="process"
        )
        _assert_bit_identical(batch, sequential)


class TestVectorizedLinearPaths:
    """The explicit matmul fast paths trade ulp-level reproducibility for
    a single GEMM; indices must still agree on data without ties."""

    def test_linear_scan_vectorized(self, small_clustered_data, small_queries):
        scan = LinearScan().fit(small_clustered_data)
        sequential = [scan.search(q, k=K) for q in small_queries]
        batch = scan.batch_search(small_queries, k=K, vectorized=True)
        assert len(batch) == len(sequential)
        for got, expected in zip(batch, sequential):
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_allclose(
                got.distances, expected.distances, rtol=1e-12, atol=1e-12
            )

    def test_linear_mips_batch(self, gaussian_blob, rng):
        queries = rng.normal(size=(5, gaussian_blob.shape[1]))
        from repro.core.mips import linear_mips

        batched = linear_mips_batch(gaussian_blob, queries, k=5)
        for got, query in zip(batched, queries):
            expected = linear_mips(gaussian_blob, query, k=5)
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_allclose(
                got.distances, expected.distances, rtol=1e-12, atol=1e-12
            )

    def test_vectorized_rejects_unknown_kwargs(self, small_clustered_data,
                                               small_queries):
        scan = LinearScan().fit(small_clustered_data)
        with pytest.raises(TypeError):
            scan.batch_search(small_queries, k=K, vectorized=True, probes=3)


class TestBatchStats:
    def test_pooled_stats_match_sequential_sum(self, small_clustered_data,
                                               small_queries):
        index = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        sequential = [index.search(q, k=K) for q in small_queries]
        batch = index.batch_search(small_queries, k=K, n_jobs=4)
        assert batch.stats.candidates_verified == sum(
            r.stats.candidates_verified for r in sequential
        )
        assert batch.stats.nodes_visited == sum(
            r.stats.nodes_visited for r in sequential
        )
        assert batch.stats.center_inner_products == sum(
            r.stats.center_inner_products for r in sequential
        )
        assert batch.wall_seconds > 0.0

    def test_per_query_elapsed_recorded(self, small_clustered_data,
                                        small_queries):
        index = BallTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        batch = index.batch_search(small_queries, k=K, n_jobs=2)
        assert all(r.stats.elapsed_seconds > 0.0 for r in batch)
