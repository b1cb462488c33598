"""Tests for the KD-Tree comparison baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KDTree
from repro.eval import exact_ground_truth
from tests.conftest import assert_matches_ground_truth


class TestKDTree:
    def test_exact_matches_ground_truth(self, small_clustered_data, small_queries,
                                        small_ground_truth):
        _, true_distances = small_ground_truth
        tree = KDTree(leaf_size=40).fit(small_clustered_data)
        for query, truth in zip(small_queries, true_distances):
            assert_matches_ground_truth(tree.search(query, k=10), truth)

    def test_leaf_size_respected(self, small_clustered_data):
        tree = KDTree(leaf_size=25).fit(small_clustered_data)
        arrays = tree.tree
        for node in range(arrays.start.shape[0]):
            if arrays.left_child[node] == -1:
                assert arrays.end[node] - arrays.start[node] <= 25

    def test_pruning_happens_on_clustered_data(self, small_clustered_data,
                                               small_queries):
        tree = KDTree(leaf_size=10).fit(small_clustered_data)
        verified = [
            tree.search(query, k=1).stats.candidates_verified
            for query in small_queries
        ]
        assert min(verified) < small_clustered_data.shape[0]

    def test_candidate_budget(self, small_clustered_data, small_queries):
        tree = KDTree(leaf_size=20).fit(small_clustered_data)
        result = tree.search(small_queries[0], k=5, max_candidates=40)
        assert result.stats.candidates_verified <= 60

    def test_identical_points_build(self):
        tree = KDTree(leaf_size=4).fit(np.ones((20, 3)))
        result = tree.search(np.array([1.0, 0.0, 0.0, -1.0]), k=3)
        assert len(result) == 3

    def test_invalid_leaf_size(self):
        with pytest.raises(ValueError):
            KDTree(leaf_size=-1)

    def test_rejects_unknown_search_options(self, gaussian_blob):
        tree = KDTree(leaf_size=16).fit(gaussian_blob)
        with pytest.raises(TypeError, match="KDTree.search got unexpected"
                           " options: probes_per_table"):
            tree.search(np.ones(9), k=1, probes_per_table=3)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        num_points=st.integers(5, 150),
        dim=st.integers(2, 10),
        k=st.integers(1, 8),
    )
    def test_property_exactness(self, seed, num_points, dim, k):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(num_points, dim))
        query = rng.normal(size=dim + 1)
        if np.linalg.norm(query[:-1]) < 1e-6:
            query[0] = 1.0
        _, truth_dist = exact_ground_truth(points, query[None, :], k)
        tree = KDTree(leaf_size=10).fit(points)
        assert_matches_ground_truth(tree.search(query, k=k), truth_dist[0])
