"""Tests for the Ball-Tree maximum inner product search extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_base import NotFittedError
from repro.core.mips import (
    BallTreeMIPS,
    linear_mips,
    node_absolute_mips_bound,
    node_mips_bound,
)


@pytest.fixture(scope="module")
def mips_data():
    rng = np.random.default_rng(17)
    return rng.normal(size=(500, 12)) * rng.uniform(0.5, 3.0, size=(500, 1))


@pytest.fixture(scope="module")
def mips_index(mips_data):
    return BallTreeMIPS(leaf_size=32, random_state=17).fit(mips_data)


class TestLinearMIPS:
    def test_returns_true_maximum(self, mips_data, rng):
        query = rng.normal(size=12)
        result = linear_mips(mips_data, query, k=1)
        assert result.distances[0] == pytest.approx(float(np.max(mips_data @ query)))

    def test_scores_sorted_descending(self, mips_data, rng):
        result = linear_mips(mips_data, rng.normal(size=12), k=20)
        assert np.all(np.diff(result.distances) <= 1e-12)

    def test_k_clamped_to_n(self, rng):
        points = rng.normal(size=(5, 4))
        result = linear_mips(points, rng.normal(size=4), k=50)
        assert len(result) == 5


class TestBallTreeMIPS:
    def test_matches_linear_scan_signed(self, mips_index, mips_data, rng):
        for _ in range(10):
            query = rng.normal(size=12)
            tree_result = mips_index.search(query, k=10)
            exact = linear_mips(mips_data, query, k=10)
            np.testing.assert_allclose(
                tree_result.distances, exact.distances, atol=1e-9
            )

    def test_matches_linear_scan_absolute(self, mips_index, mips_data, rng):
        for _ in range(10):
            query = rng.normal(size=12)
            tree_result = mips_index.search_absolute(query, k=10)
            scores = np.abs(mips_data @ query)
            expected = np.sort(scores)[::-1][:10]
            np.testing.assert_allclose(tree_result.distances, expected, atol=1e-9)

    @pytest.mark.parametrize("absolute", [False, True])
    def test_batch_search_matches_search(self, mips_index, absolute):
        """``absolute`` is an ordinary kernel option; every batch row
        equals the matching one-row search, for every pool size."""
        queries = np.random.default_rng(3).normal(size=(9, 12))
        search = mips_index.search_absolute if absolute else mips_index.search
        expected = [search(query, k=6) for query in queries]
        for n_jobs in (1, 2):
            batch = mips_index.batch_search(
                queries, k=6, n_jobs=n_jobs, absolute=absolute
            )
            assert len(batch) == len(expected)
            for got, want in zip(batch, expected):
                np.testing.assert_array_equal(got.indices, want.indices)
                np.testing.assert_array_equal(got.distances, want.distances)
                assert got.stats.nodes_visited == want.stats.nodes_visited

    def test_prunes_some_nodes(self, mips_index, rng):
        """On clustered-norm data the bound should prune at least one subtree."""
        result = mips_index.search(rng.normal(size=12) * 5.0, k=1)
        assert result.stats.candidates_verified < mips_index.num_points

    def test_index_size_positive(self, mips_index):
        assert mips_index.index_size_bytes() > 0

    def test_requires_fit(self, rng):
        with pytest.raises(NotFittedError):
            BallTreeMIPS().search(rng.normal(size=4), k=1)

    def test_rejects_bad_k(self, mips_index, rng):
        with pytest.raises(ValueError):
            mips_index.search(rng.normal(size=12), k=0)

    def test_rejects_wrong_dimension(self, mips_index, rng):
        with pytest.raises(ValueError):
            mips_index.search(rng.normal(size=9), k=1)

    def test_fit_returns_self(self, mips_data):
        index = BallTreeMIPS(leaf_size=64, random_state=0)
        assert index.fit(mips_data) is index

    def test_leaf_size_one_still_correct(self, rng):
        points = rng.normal(size=(40, 6))
        query = rng.normal(size=6)
        index = BallTreeMIPS(leaf_size=1, random_state=1).fit(points)
        exact = linear_mips(points, query, k=5)
        np.testing.assert_allclose(
            index.search(query, k=5).distances, exact.distances, atol=1e-9
        )


class TestMIPSBounds:
    @settings(max_examples=100, deadline=None)
    @given(
        ip=st.floats(-50, 50),
        query_norm=st.floats(0, 20),
        radius=st.floats(0, 20),
        offset=st.floats(-1, 1),
    )
    def test_signed_bound_dominates_ball_members(self, ip, query_norm, radius, offset):
        """Any inner product achievable inside the ball is below the bound.

        For a point x = c + delta with ||delta|| <= r we have
        <x, q> = <c, q> + <delta, q> <= <c, q> + ||q|| r.
        """
        achievable = ip + offset * query_norm * radius
        assert achievable <= node_mips_bound(ip, query_norm, radius) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        ip=st.floats(-50, 50),
        query_norm=st.floats(0, 20),
        radius=st.floats(0, 20),
        offset=st.floats(-1, 1),
    )
    def test_absolute_bound_dominates_ball_members(
        self, ip, query_norm, radius, offset
    ):
        achievable = abs(ip + offset * query_norm * radius)
        assert achievable <= node_absolute_mips_bound(ip, query_norm, radius) + 1e-9

    def test_bound_tight_at_zero_radius(self):
        assert node_mips_bound(3.5, 2.0, 0.0) == pytest.approx(3.5)
        assert node_absolute_mips_bound(-3.5, 2.0, 0.0) == pytest.approx(3.5)


class TestMIPSProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), leaf_size=st.integers(1, 64))
    def test_tree_equals_bruteforce_random_instances(self, seed, leaf_size):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        d = int(rng.integers(2, 10))
        points = rng.normal(size=(n, d))
        query = rng.normal(size=d)
        index = BallTreeMIPS(leaf_size=leaf_size, random_state=seed).fit(points)
        k = min(5, n)
        np.testing.assert_allclose(
            index.search(query, k=k).distances,
            linear_mips(points, query, k=k).distances,
            atol=1e-9,
        )
