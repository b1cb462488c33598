"""Tests for the best-first (priority queue) traversal."""

from __future__ import annotations

import numpy as np
import pytest

from repro import BallTree, BCTree, LinearScan, NotFittedError
from repro.core.best_first import BestFirstSearcher, best_first_search
from repro.eval import exact_ground_truth


@pytest.fixture(scope="module", params=["ball", "bc"])
def fitted_tree(request, small_clustered_data):
    if request.param == "ball":
        return BallTree(leaf_size=40, random_state=3).fit(small_clustered_data)
    return BCTree(leaf_size=40, random_state=3).fit(small_clustered_data)


class TestBestFirstExactness:
    def test_matches_exact_ground_truth(
        self, fitted_tree, small_clustered_data, small_queries, match_ground_truth
    ):
        truth_idx, truth_dist = exact_ground_truth(
            small_clustered_data, small_queries, 10
        )
        searcher = BestFirstSearcher(fitted_tree)
        for query, distances in zip(small_queries, truth_dist):
            result = searcher.search(query, k=10)
            match_ground_truth(result, distances)

    def test_matches_dfs_search(self, fitted_tree, small_queries):
        searcher = BestFirstSearcher(fitted_tree)
        for query in small_queries:
            dfs = fitted_tree.search(query, k=5)
            bfs = searcher.search(query, k=5)
            np.testing.assert_allclose(
                np.sort(bfs.distances), np.sort(dfs.distances), atol=1e-9
            )

    def test_k_one_returns_single_best(self, fitted_tree, small_queries):
        searcher = BestFirstSearcher(fitted_tree)
        result = searcher.search(small_queries[0], k=1)
        assert len(result) == 1

    def test_k_larger_than_n_clamps(self, small_clustered_data, small_queries):
        tree = BallTree(leaf_size=40, random_state=3).fit(small_clustered_data[:50])
        result = best_first_search(tree, small_queries[0], k=500)
        assert len(result) == 50

    def test_distances_sorted_ascending(self, fitted_tree, small_queries):
        result = BestFirstSearcher(fitted_tree).search(small_queries[0], k=20)
        assert np.all(np.diff(result.distances) >= -1e-12)


class TestBestFirstEfficiency:
    def test_visits_no_more_nodes_than_dfs_exact(
        self, small_clustered_data, small_queries
    ):
        """Best-first expands nodes in bound order, so for exact search it
        should never visit more nodes than the DFS traversal with the same
        bound (up to the root, counted by both)."""
        tree = BallTree(leaf_size=40, random_state=3).fit(small_clustered_data)
        searcher = BestFirstSearcher(tree)
        for query in small_queries:
            dfs = tree.search(query, k=10)
            bfs = searcher.search(query, k=10)
            assert bfs.stats.nodes_visited <= dfs.stats.nodes_visited

    def test_candidate_budget_limits_verification(self, fitted_tree, small_queries):
        searcher = BestFirstSearcher(fitted_tree)
        budget = 80
        result = searcher.search(small_queries[0], k=5, max_candidates=budget)
        # One leaf may be scanned after reaching the budget boundary.
        assert result.stats.candidates_verified <= budget + fitted_tree.leaf_size

    def test_candidate_fraction_budget(self, fitted_tree, small_queries):
        searcher = BestFirstSearcher(fitted_tree)
        result = searcher.search(small_queries[0], k=5, candidate_fraction=0.05)
        assert result.stats.candidates_verified < fitted_tree.num_points

    def test_fraction_and_max_candidates_conflict(self, fitted_tree, small_queries):
        searcher = BestFirstSearcher(fitted_tree)
        with pytest.raises(ValueError):
            searcher.search(
                small_queries[0], k=5, candidate_fraction=0.1, max_candidates=10
            )


class TestBestFirstValidation:
    def test_requires_tree_index(self, small_clustered_data):
        scan = LinearScan().fit(small_clustered_data)
        with pytest.raises(TypeError):
            BestFirstSearcher(scan)

    def test_requires_fitted_index(self):
        with pytest.raises(NotFittedError):
            BestFirstSearcher(BallTree())

    def test_rejects_bad_k(self, fitted_tree, small_queries):
        searcher = BestFirstSearcher(fitted_tree)
        with pytest.raises(ValueError):
            searcher.search(small_queries[0], k=0)

    def test_rejects_wrong_query_dimension(self, fitted_tree):
        searcher = BestFirstSearcher(fitted_tree)
        with pytest.raises(ValueError):
            searcher.search(np.ones(fitted_tree.dim + 3), k=1)

    def test_convenience_wrapper_equivalent(self, fitted_tree, small_queries):
        direct = BestFirstSearcher(fitted_tree).search(small_queries[0], k=5)
        wrapped = best_first_search(fitted_tree, small_queries[0], k=5)
        np.testing.assert_allclose(direct.distances, wrapped.distances)


COUNTERS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
)


class TestBestFirstBatch:
    @pytest.mark.parametrize(
        "budget",
        [{}, {"candidate_fraction": 0.2}, {"max_candidates": 70}],
        ids=["exact", "fraction", "count"],
    )
    def test_batch_equals_sequential_with_counters(
        self, fitted_tree, small_queries, budget
    ):
        """``batch_search`` runs the best-first block kernel on worker
        chunks; every row equals its one-row ``search``, counters
        included, for every pool size."""
        searcher = BestFirstSearcher(fitted_tree)
        sequential = [searcher.search(q, k=7, **budget) for q in small_queries]
        for n_jobs in (1, 2):
            batch = searcher.batch_search(
                small_queries, k=7, n_jobs=n_jobs, **budget
            )
            assert len(batch) == len(sequential)
            for got, expected in zip(batch, sequential):
                np.testing.assert_array_equal(got.indices, expected.indices)
                np.testing.assert_array_equal(got.distances, expected.distances)
                for field in COUNTERS:
                    assert getattr(got.stats, field) == getattr(
                        expected.stats, field
                    )
