"""Tests for the shared P2HIndex interface and policies."""

import numpy as np
import pytest

from repro import BallTree, BCTree, BranchPreference, LinearScan, NotFittedError
from repro.core.distances import augment_points, normalize_query


class TestFitValidation:
    @pytest.mark.parametrize("index_cls", [BallTree, BCTree, LinearScan])
    def test_rejects_nan_points(self, index_cls):
        points = np.ones((10, 3))
        points[0, 0] = np.nan
        with pytest.raises(ValueError):
            index_cls().fit(points)

    @pytest.mark.parametrize("index_cls", [BallTree, BCTree, LinearScan])
    def test_rejects_empty_points(self, index_cls):
        with pytest.raises(ValueError):
            index_cls().fit(np.empty((0, 3)))

    def test_fit_returns_self(self, gaussian_blob):
        tree = BallTree(leaf_size=20)
        assert tree.fit(gaussian_blob) is tree

    def test_augment_false_accepts_augmented_points(self, gaussian_blob):
        augmented = augment_points(gaussian_blob)
        tree = BallTree(leaf_size=20, augment=False).fit(augmented)
        assert tree.dim == augmented.shape[1]
        result = tree.search(np.ones(tree.dim), k=3)
        assert len(result) == 3

    def test_points_property_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            _ = BallTree().points

    def test_index_size_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BallTree().index_size_bytes()


class TestSearchValidation:
    def test_query_dimension_checked(self, gaussian_blob):
        tree = BallTree(leaf_size=20).fit(gaussian_blob)
        with pytest.raises(ValueError):
            tree.search(np.ones(5), k=1)  # expects dim 9

    def test_query_nan_rejected(self, gaussian_blob):
        tree = BallTree(leaf_size=20).fit(gaussian_blob)
        query = np.ones(9)
        query[0] = np.nan
        with pytest.raises(ValueError):
            tree.search(query, k=1)

    def test_degenerate_query_rejected(self, gaussian_blob):
        tree = BallTree(leaf_size=20).fit(gaussian_blob)
        query = np.zeros(9)
        query[-1] = 1.0  # zero normal vector
        with pytest.raises(ValueError):
            tree.search(query, k=1)

    def test_invalid_k_rejected(self, gaussian_blob):
        tree = BallTree(leaf_size=20).fit(gaussian_blob)
        with pytest.raises(ValueError):
            tree.search(np.ones(9), k=0)

    def test_normalize_queries_false_uses_raw_inner_products(self, gaussian_blob):
        """With normalization off, distances are |<x, q>| for the raw q."""
        tree = BallTree(leaf_size=20, normalize_queries=False).fit(gaussian_blob)
        query = np.ones(9) * 2.0
        result = tree.search(query, k=1)
        augmented = augment_points(gaussian_blob)
        expected = np.abs(augmented @ query).min()
        assert result.distances[0] == pytest.approx(expected)

    def test_distances_scale_with_query_normalization(self, gaussian_blob):
        normalized_tree = BallTree(leaf_size=20, random_state=0).fit(gaussian_blob)
        raw_tree = BallTree(leaf_size=20, random_state=0,
                            normalize_queries=False).fit(gaussian_blob)
        query = np.ones(9) * 2.0
        scaled = normalized_tree.search(query, k=1).distances[0]
        unscaled = raw_tree.search(query, k=1).distances[0]
        norm = np.linalg.norm(query[:-1])
        assert unscaled == pytest.approx(scaled * norm, rel=1e-9)

    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    def test_prepared_block_equals_row_by_row_vstack(self, gaussian_blob, rows):
        index = LinearScan().fit(gaussian_blob)
        rng = np.random.default_rng(rows)
        for scale in (1e-3, 1.0, 1e4):
            block = np.ascontiguousarray(rng.normal(size=(rows, 9)) * scale)
            expected = np.vstack([normalize_query(row) for row in block])
            got = index._prepare_query_matrix(block)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert got is not block


class TestBatchSearch:
    def test_batch_matches_individual(self, small_clustered_data, small_queries):
        tree = BCTree(leaf_size=30, random_state=0).fit(small_clustered_data)
        batch = tree.batch_search(small_queries, k=5)
        for query, batched in zip(small_queries, batch):
            single = tree.search(query, k=5)
            np.testing.assert_allclose(np.sort(single.distances),
                                       np.sort(batched.distances), atol=1e-12)


class TestBranchPreference:
    def test_coerce_accepts_strings_and_members(self):
        assert BranchPreference.coerce("center") is BranchPreference.CENTER
        assert (
            BranchPreference.coerce(BranchPreference.LOWER_BOUND)
            is BranchPreference.LOWER_BOUND
        )

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown branch preference"):
            BranchPreference.coerce("random")

    def test_per_query_override(self, small_clustered_data, small_queries,
                                small_ground_truth):
        _, true_distances = small_ground_truth
        tree = BallTree(leaf_size=40, random_state=0).fit(small_clustered_data)
        result = tree.search(
            small_queries[0], k=10, branch_preference="lower_bound"
        )
        np.testing.assert_allclose(np.sort(result.distances),
                                   np.sort(true_distances[0]), atol=1e-9)
