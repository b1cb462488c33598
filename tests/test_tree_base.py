"""Tests for the flat-array tree builder shared by Ball-Tree and BC-Tree."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distances import augment_points
from repro.core.rp_tree import random_projection_split
from repro.core.tree_base import NO_CHILD, NodeView, TreeArrays, build_tree
from tests.reference_builder import POINT_KINDS, make_points, reference_build_tree


def _build(points, leaf_size, **kwargs):
    return build_tree(augment_points(points), leaf_size, rng=0, **kwargs)


class TestBuildTree:
    def test_perm_is_a_permutation(self):
        points = np.random.default_rng(0).normal(size=(123, 5))
        tree = _build(points, 10)
        np.testing.assert_array_equal(np.sort(tree.perm), np.arange(123))

    def test_root_owns_all_points(self):
        points = np.random.default_rng(1).normal(size=(50, 4))
        tree = _build(points, 8)
        assert tree.start[0] == 0
        assert tree.end[0] == 50

    def test_children_partition_parent(self):
        """Eq. 4-5: |N.lc| + |N.rc| = |N| with contiguous, disjoint slices."""
        points = np.random.default_rng(2).normal(size=(200, 6))
        tree = _build(points, 16)
        for node in range(tree.num_nodes):
            left, right = tree.left_child[node], tree.right_child[node]
            if left == NO_CHILD:
                continue
            assert tree.start[left] == tree.start[node]
            assert tree.end[left] == tree.start[right]
            assert tree.end[right] == tree.end[node]
            assert tree.node_size(left) + tree.node_size(right) == tree.node_size(node)

    def test_leaves_respect_leaf_size(self):
        points = np.random.default_rng(3).normal(size=(500, 3))
        tree = _build(points, 25)
        for node in range(tree.num_nodes):
            if tree.is_leaf(node):
                assert tree.node_size(node) <= 25
                assert tree.node_size(node) >= 1

    def test_every_leaf_size_one_when_leaf_size_one(self):
        points = np.random.default_rng(4).normal(size=(33, 2))
        tree = _build(points, 1)
        leaf_sizes = [
            tree.node_size(node)
            for node in range(tree.num_nodes)
            if tree.is_leaf(node)
        ]
        assert all(size == 1 for size in leaf_sizes)
        assert sum(leaf_sizes) == 33

    def test_center_is_centroid_and_radius_encloses(self):
        """Eq. 6-7: center = mean, radius = max distance to center."""
        raw = np.random.default_rng(5).normal(size=(150, 7))
        points = augment_points(raw)
        tree = build_tree(points, 20, rng=0)
        for node in range(tree.num_nodes):
            owned = points[tree.node_point_indices(node)]
            np.testing.assert_allclose(tree.centers[node], owned.mean(axis=0),
                                       atol=1e-9)
            distances = np.linalg.norm(owned - tree.centers[node], axis=1)
            assert tree.radii[node] == pytest.approx(distances.max(), abs=1e-9)
            assert (distances <= tree.radii[node] + 1e-9).all()

    def test_lemma1_centers_match_direct_centers(self):
        """Lemma 1: child-derived centers equal directly computed centroids."""
        raw = np.random.default_rng(6).normal(size=(300, 5))
        points = augment_points(raw)
        direct = build_tree(points, 30, rng=7, centers_from_children=False)
        derived = build_tree(points, 30, rng=7, centers_from_children=True)
        assert direct.num_nodes == derived.num_nodes
        np.testing.assert_allclose(direct.centers, derived.centers, atol=1e-8)
        np.testing.assert_allclose(direct.radii, derived.radii, atol=1e-8)

    def test_single_point_dataset(self):
        tree = _build(np.array([[1.0, 2.0]]), 10)
        assert tree.num_nodes == 1
        assert tree.is_leaf(0)
        assert tree.radii[0] == 0.0

    def test_all_identical_points_terminate(self):
        points = np.ones((64, 4))
        tree = _build(points, 4)
        assert tree.num_leaves >= 16
        assert (tree.radii == 0.0).all()

    def test_invalid_leaf_size(self):
        with pytest.raises(ValueError):
            _build(np.ones((5, 2)), 0)

    def test_num_leaves_and_nodes_consistent(self):
        points = np.random.default_rng(8).normal(size=(256, 3))
        tree = _build(points, 32)
        # A full binary tree has internal nodes = leaves - 1.
        assert tree.num_nodes == 2 * tree.num_leaves - 1

    def test_depth_at_least_two_for_split_tree(self):
        points = np.random.default_rng(9).normal(size=(100, 3))
        tree = _build(points, 10)
        assert tree.depth() >= 2

    @settings(max_examples=20, deadline=None)
    @given(
        num_points=st.integers(2, 120),
        dim=st.integers(1, 8),
        leaf_size=st.integers(1, 40),
        seed=st.integers(0, 1000),
    )
    def test_structural_invariants_hold_for_random_shapes(
        self, num_points, dim, leaf_size, seed
    ):
        """Property: perm is a permutation, leaves cover the data, sizes ok."""
        points = np.random.default_rng(seed).normal(size=(num_points, dim))
        tree = _build(points, leaf_size)
        np.testing.assert_array_equal(np.sort(tree.perm), np.arange(num_points))
        leaf_total = sum(
            tree.node_size(node)
            for node in range(tree.num_nodes)
            if tree.is_leaf(node)
        )
        assert leaf_total == num_points
        for node in range(tree.num_nodes):
            if tree.is_leaf(node):
                assert tree.node_size(node) <= leaf_size


class TestBuildMatchesReference:
    """The builder reorders a working copy in place and reuses a scratch
    matrix; its output must equal the per-node-gather reference byte for
    byte, for every caller's configuration."""

    @given(
        num_points=st.integers(1, 150),
        dim=st.integers(1, 6),
        kind=st.sampled_from(POINT_KINDS),
        leaf_rule=st.sampled_from(["one", "two", "random", "at_least_n"]),
        leaf_draw=st.integers(3, 40),
        centers_from_children=st.booleans(),
        rp_split=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(num_points=120, dim=3, kind="grid", leaf_rule="two", leaf_draw=3,
             centers_from_children=True, rp_split=False, seed=5)
    @example(num_points=64, dim=4, kind="identical", leaf_rule="random",
             leaf_draw=4, centers_from_children=False, rp_split=False, seed=0)
    @example(num_points=50, dim=2, kind="near_identical", leaf_rule="one",
             leaf_draw=3, centers_from_children=True, rp_split=True, seed=1)
    def test_every_field_equals_the_reference(
        self, num_points, dim, kind, leaf_rule, leaf_draw,
        centers_from_children, rp_split, seed,
    ):
        points = augment_points(make_points(kind, num_points, dim, seed))
        leaf_size = {
            "one": 1, "two": 2, "random": leaf_draw,
            "at_least_n": num_points + leaf_draw - 3,
        }[leaf_rule]
        options = dict(
            rng=seed,
            centers_from_children=centers_from_children,
            split_fn=random_projection_split if rp_split else None,
        )
        got = build_tree(points, leaf_size, **options)
        want = reference_build_tree(points, leaf_size, **options)
        for field in dataclasses.fields(TreeArrays):
            assert np.array_equal(
                getattr(got, field.name), getattr(want, field.name)
            ), field.name

    def test_leaves_the_callers_points_unchanged(self):
        points = augment_points(make_points("grid", 200, 5, 3))
        before = points.copy()
        points.setflags(write=False)  # any write into the input raises
        build_tree(points, 4, rng=3, centers_from_children=True)
        assert np.array_equal(points, before)


class TestNodeView:
    def test_navigation_and_properties(self):
        raw = np.random.default_rng(10).normal(size=(80, 4))
        points = augment_points(raw)
        tree = build_tree(points, 10, rng=0)
        root = NodeView(tree, 0, points)
        assert not root.is_leaf
        assert root.size == 80
        assert root.left is not None and root.right is not None
        assert root.left.size + root.right.size == 80
        np.testing.assert_allclose(root.center, points.mean(axis=0), atol=1e-9)
        leaf = root
        while not leaf.is_leaf:
            leaf = leaf.left
        assert leaf.left is None and leaf.right is None
        assert leaf.points.shape[0] == leaf.size

    def test_points_requires_matrix(self):
        tree = build_tree(augment_points(np.ones((4, 2))), 2, rng=0)
        view = NodeView(tree, 0)
        with pytest.raises(ValueError):
            _ = view.points
