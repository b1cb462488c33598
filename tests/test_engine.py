"""Tests for the query-execution engine (traversal, budget, batch plumbing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BallTree, BCTree, KDTree, LinearScan
from repro.core.best_first import BestFirstSearcher
from repro.engine import (
    BatchSearchResult,
    TraversalEngine,
    execute_batch,
    resolve_budget,
)
from repro.engine.batch import _difficulty_order, pool_results
from repro.core.results import SearchResult, SearchStats


class TestResolveBudget:
    """The one shared budget translation (previously copy-pasted per index)."""

    def test_no_knobs_means_exact(self):
        assert resolve_budget(None, None, 1000) == float("inf")

    def test_fraction_scales_with_num_points(self):
        assert resolve_budget(0.1, None, 1000) == 100.0

    def test_fraction_floors_at_one(self):
        assert resolve_budget(0.0001, None, 100) == 1.0

    def test_max_candidates_passthrough(self):
        assert resolve_budget(None, 42, 1000) == 42.0

    def test_both_knobs_conflict(self):
        with pytest.raises(ValueError):
            resolve_budget(0.1, 10, 1000)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            resolve_budget(1.5, None, 1000)

    def test_bad_max_candidates(self):
        with pytest.raises(ValueError):
            resolve_budget(None, 0, 1000)

    @pytest.mark.parametrize("index_cls", [BallTree, BCTree, KDTree])
    def test_indexes_share_the_engine_budget(self, index_cls,
                                             small_clustered_data,
                                             small_queries):
        """Every tree rejects conflicting knobs via the shared resolver."""
        index = index_cls(leaf_size=40).fit(small_clustered_data)
        with pytest.raises(ValueError):
            index.search(
                small_queries[0], k=3, candidate_fraction=0.1, max_candidates=5
            )

    def test_best_first_shares_the_engine_budget(self, small_clustered_data,
                                                 small_queries):
        searcher = BestFirstSearcher(
            BallTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        )
        with pytest.raises(ValueError):
            searcher.search(
                small_queries[0], k=3, candidate_fraction=0.1, max_candidates=5
            )


class TestTraversalEngine:
    def test_engine_is_cached_and_reset_on_refit(self, small_clustered_data):
        tree = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        engine = tree._engine()
        assert tree._engine() is engine
        tree.fit(small_clustered_data)
        assert tree._engine() is not engine

    def test_engine_not_pickled(self, tmp_path, small_clustered_data,
                                small_queries):
        tree = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        expected = tree.search(small_queries[0], k=5)
        tree._engine()  # force the cache to exist
        path = tmp_path / "bc.pkl"
        tree.save(path)
        loaded = BCTree.load(path)
        assert loaded._engine_cache is None
        reloaded = loaded.search(small_queries[0], k=5)
        np.testing.assert_array_equal(expected.indices, reloaded.indices)
        np.testing.assert_array_equal(expected.distances, reloaded.distances)

    def test_rejects_unknown_order(self, small_clustered_data, small_queries):
        tree = BallTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        kernel = tree._engine().block_kernel()
        with pytest.raises(ValueError, match="order"):
            kernel.search_block(small_queries[:1] / 2, 3, order="sideways")

    def test_depth_first_equals_best_first_exact(self, small_clustered_data,
                                                 small_queries,
                                                 match_ground_truth,
                                                 small_ground_truth):
        """Both frontier modes of the one kernel return the exact answer."""
        _, truth_dist = small_ground_truth
        tree = BCTree(leaf_size=40, random_state=1).fit(small_clustered_data)
        searcher = BestFirstSearcher(tree)
        for query, truth in zip(small_queries, truth_dist):
            match_ground_truth(tree.search(query, k=10), truth)
            match_ground_truth(searcher.search(query, k=10), truth)

    def test_kd_engine_matches_ground_truth(self, small_clustered_data,
                                            small_queries, small_ground_truth,
                                            match_ground_truth):
        _, truth_dist = small_ground_truth
        tree = KDTree(leaf_size=40).fit(small_clustered_data)
        for query, truth in zip(small_queries, truth_dist):
            match_ground_truth(tree.search(query, k=10), truth)

    def test_factories_configure_leaf_scanners(self, small_clustered_data):
        """Ball-Tree scans leaves exhaustively; BC-Tree carries the
        point-level pruning data, scanned whole-leaf or point by point."""
        ball = BallTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        bc = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        seq = BCTree(leaf_size=40, random_state=0,
                     scan_mode="sequential").fit(small_clustered_data)
        assert ball._engine()._leaf is None
        assert bc._engine()._leaf is not None
        assert not bc._engine()._sequential_leaf_scan
        assert seq._engine()._leaf is not None
        assert seq._engine()._sequential_leaf_scan

    def test_sequential_scan_tightens_inside_the_leaf(self,
                                                      small_clustered_data,
                                                      small_queries):
        """``scan_mode="sequential"`` really runs the point-by-point scan:
        its threshold tightens inside a leaf, so it never verifies more
        candidates than the whole-leaf scan and verifies fewer on some
        query, while returning the same neighbors (its one dot product
        per point may differ from the leaf GEMV in the last ulp)."""
        vec = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        seq = BCTree(leaf_size=40, random_state=0,
                     scan_mode="sequential").fit(small_clustered_data)
        fewer = 0
        for query in small_queries:
            a = vec.search(query, k=10)
            b = seq.search(query, k=10)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_allclose(a.distances, b.distances,
                                       rtol=1e-12, atol=1e-12)
            assert (
                b.stats.candidates_verified <= a.stats.candidates_verified
            )
            fewer += (
                b.stats.candidates_verified < a.stats.candidates_verified
            )
        assert fewer > 0


class TestBatchSearchResult:
    def _batch(self):
        results = [
            SearchResult(
                indices=np.array([3, 1], dtype=np.int64),
                distances=np.array([0.1, 0.2]),
                stats=SearchStats(candidates_verified=5, elapsed_seconds=0.5),
            ),
            SearchResult(
                indices=np.array([2], dtype=np.int64),
                distances=np.array([0.3]),
                stats=SearchStats(candidates_verified=7, elapsed_seconds=0.25),
            ),
        ]
        return pool_results(results, wall_seconds=0.5, cpu_seconds=0.4, n_jobs=2)

    def test_sequence_protocol(self):
        batch = self._batch()
        assert len(batch) == 2
        assert len(batch[0]) == 2
        assert [len(r) for r in batch] == [2, 1]

    def test_pooled_stats(self):
        batch = self._batch()
        assert batch.stats.candidates_verified == 12
        assert batch.stats.elapsed_seconds == pytest.approx(0.75)

    def test_throughput(self):
        batch = self._batch()
        assert batch.queries_per_second == pytest.approx(4.0)

    def test_matrices_pad_ragged_rows(self):
        batch = self._batch()
        indices = batch.indices_matrix()
        distances = batch.distances_matrix()
        np.testing.assert_array_equal(indices, [[3, 1], [2, -1]])
        assert distances[1, 1] == np.inf
        np.testing.assert_allclose(distances[0], [0.1, 0.2])


class TestExecuteBatch:
    def test_empty_batch(self, small_clustered_data):
        scan = LinearScan().fit(small_clustered_data)
        batch = scan.batch_search(
            np.empty((0, small_clustered_data.shape[1] + 1)), k=3
        )
        assert len(batch) == 0
        assert batch.queries_per_second == 0.0

    def test_single_vector_is_promoted(self, small_clustered_data,
                                       small_queries):
        scan = LinearScan().fit(small_clustered_data)
        batch = scan.batch_search(small_queries[0], k=3)
        assert len(batch) == 1
        assert isinstance(batch, BatchSearchResult)

    def test_rejects_bad_executor(self, small_clustered_data, small_queries):
        scan = LinearScan().fit(small_clustered_data)
        with pytest.raises(ValueError):
            scan.batch_search(small_queries, k=3, executor="fiber")

    def test_rejects_bad_n_jobs(self, small_clustered_data, small_queries):
        scan = LinearScan().fit(small_clustered_data)
        with pytest.raises(ValueError):
            scan.batch_search(small_queries, k=3, n_jobs=0)

    def test_difficulty_order_is_a_permutation(self, small_clustered_data,
                                               small_queries):
        tree = BCTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        order = _difficulty_order(tree, np.atleast_2d(small_queries))
        assert sorted(order.tolist()) == list(range(len(small_queries)))

    def test_difficulty_order_without_tree_is_identity(self,
                                                       small_clustered_data,
                                                       small_queries):
        scan = LinearScan().fit(small_clustered_data)
        order = _difficulty_order(scan, np.atleast_2d(small_queries))
        np.testing.assert_array_equal(order, np.arange(len(small_queries)))

    def test_search_fn_with_process_executor_rejected(self,
                                                      small_clustered_data,
                                                      small_queries):
        scan = LinearScan().fit(small_clustered_data)
        with pytest.raises(ValueError):
            execute_batch(
                scan,
                small_queries,
                3,
                n_jobs=2,
                executor="process",
                search_fn=lambda q: scan.search(q, k=3),
            )

    def test_invalid_search_kwargs_propagate(self, small_clustered_data,
                                             small_queries):
        scan = LinearScan().fit(small_clustered_data)
        with pytest.raises(TypeError):
            scan.batch_search(small_queries, k=3, warp_factor=9)


class TestEngineCounters:
    def test_collaborative_accounting_matches_theorem5(self,
                                                       small_clustered_data,
                                                       small_queries):
        """The engine keeps the paper's logical inner-product cost model."""
        with_lemma = BCTree(leaf_size=30, random_state=6).fit(
            small_clustered_data
        )
        without_lemma = BCTree(
            leaf_size=30, random_state=6, collaborative_ip=False
        ).fit(small_clustered_data)
        for query in small_queries:
            collaborative = with_lemma.search(query, k=5)
            direct = without_lemma.search(query, k=5)
            # Identical traversal, counters differing exactly per Theorem 5.
            np.testing.assert_array_equal(
                collaborative.indices, direct.indices
            )
            assert collaborative.stats.center_inner_products == (
                direct.stats.center_inner_products + 1
            ) // 2

    def test_profile_stages_present_for_both_orders(self, small_clustered_data,
                                                    small_queries):
        tree = BCTree(leaf_size=30, random_state=0).fit(small_clustered_data)
        result = tree.search(small_queries[0], k=5, profile=True)
        assert "lower_bounds" in result.stats.stage_seconds
        assert "verification" in result.stats.stage_seconds
