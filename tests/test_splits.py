"""Tests for the seed-grow split rule (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.splits import seed_grow_pivots, seed_grow_split
from repro.utils.rng import ensure_rng
from tests.reference_builder import (
    POINT_KINDS,
    make_points,
    reference_seed_grow_pivots,
    reference_seed_grow_split,
)


class TestSeedGrowPivots:
    def test_pivots_are_far_apart(self):
        rng = ensure_rng(0)
        points = np.vstack([np.zeros((10, 3)), np.full((10, 3), 10.0)])
        left, right = seed_grow_pivots(points, rng)
        # The two pivots must come from different blobs.
        assert abs(points[left, 0] - points[right, 0]) == pytest.approx(10.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            seed_grow_pivots(np.ones((1, 3)), ensure_rng(0))

    def test_right_pivot_is_furthest_from_left(self):
        rng = ensure_rng(3)
        points = np.random.default_rng(7).normal(size=(50, 4))
        left, right = seed_grow_pivots(points, rng)
        distances = np.linalg.norm(points - points[left], axis=1)
        assert distances[right] == pytest.approx(distances.max())


class TestSeedGrowSplit:
    @pytest.mark.parametrize("seed", range(5))
    def test_partition_covers_all_points_once(self, seed):
        """Eq. 4-5: the two halves are disjoint and cover the node."""
        points = np.random.default_rng(seed).normal(size=(37, 5))
        left, right = seed_grow_split(points, ensure_rng(seed))
        combined = np.sort(np.concatenate([left, right]))
        np.testing.assert_array_equal(combined, np.arange(37))

    def test_both_sides_nonempty(self):
        points = np.random.default_rng(1).normal(size=(20, 3))
        left, right = seed_grow_split(points, ensure_rng(1))
        assert left.size > 0
        assert right.size > 0

    def test_points_assigned_to_closer_pivot(self):
        """Two well-separated blobs must split along the blob boundary."""
        blob_a = np.random.default_rng(2).normal(size=(15, 3))
        blob_b = np.random.default_rng(3).normal(size=(15, 3)) + 100.0
        points = np.vstack([blob_a, blob_b])
        left, right = seed_grow_split(points, ensure_rng(4))
        sides = {tuple(sorted(left)), tuple(sorted(right))}
        assert tuple(range(15)) in sides
        assert tuple(range(15, 30)) in sides

    def test_identical_points_fall_back_to_positional_split(self):
        points = np.ones((10, 4))
        left, right = seed_grow_split(points, ensure_rng(0))
        assert left.size == 5
        assert right.size == 5

    def test_two_points(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        left, right = seed_grow_split(points, ensure_rng(0))
        assert left.size == 1
        assert right.size == 1

    @pytest.mark.parametrize("kind", POINT_KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_split(self, kind, seed):
        """The split reuses its left-pivot distances and computes every pass
        in a scratch matrix; the partitioned shard split calls it without
        one.  Pivots, halves and the generator state must equal the
        reference's, which recomputes each distance with np.linalg.norm."""
        points = make_points(kind, 90, 3, seed)
        rng, reference_rng = ensure_rng(seed), ensure_rng(seed)
        assert seed_grow_pivots(points, rng) == reference_seed_grow_pivots(
            points, reference_rng
        )
        got = seed_grow_split(points, rng)
        want = reference_seed_grow_split(points, reference_rng)
        for got_rows, want_rows in zip(got, want):
            assert np.array_equal(got_rows, want_rows)
        assert rng.integers(1 << 30) == reference_rng.integers(1 << 30)
