"""Tests for the insert/delete-capable dynamic index wrapper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BallTree, LinearScan
from repro.core.dynamic import DynamicP2HIndex
from repro.core.index_base import NotFittedError
from repro.eval import exact_ground_truth


def _exact_distances(points, query, k):
    _, distances = exact_ground_truth(points, query[None, :], k)
    return distances[0]


@pytest.fixture()
def dynamic_index(small_clustered_data):
    index = DynamicP2HIndex(random_state=7)
    index.insert(small_clustered_data)
    return index


class TestInsert:
    def test_insert_returns_sequential_ids(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0)
        first = index.insert(gaussian_blob[:100])
        second = index.insert(gaussian_blob[100:150])
        assert list(first) == list(range(100))
        assert list(second) == list(range(100, 150))

    def test_single_point_insert(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0)
        ids = index.insert(gaussian_blob[0])
        assert ids.shape == (1,)
        assert index.num_points == 1

    def test_dimension_mismatch_rejected(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0)
        index.insert(gaussian_blob)
        with pytest.raises(ValueError):
            index.insert(np.ones((3, gaussian_blob.shape[1] + 2)))

    def test_matches_static_search_after_bulk_insert(
        self, dynamic_index, small_clustered_data, small_queries, match_ground_truth
    ):
        for query in small_queries:
            truth = _exact_distances(small_clustered_data, query, 10)
            result = dynamic_index.search(query, k=10)
            match_ground_truth(result, truth)

    def test_incremental_inserts_match_bulk(self, gaussian_blob, small_queries):
        """Points inserted in many small batches give the same answers as one
        bulk insert (ids are positions, so distances must agree exactly)."""
        query = np.random.default_rng(3).normal(size=gaussian_blob.shape[1] + 1)
        bulk = DynamicP2HIndex(random_state=1)
        bulk.insert(gaussian_blob)
        incremental = DynamicP2HIndex(random_state=1)
        for start in range(0, gaussian_blob.shape[0], 37):
            incremental.insert(gaussian_blob[start: start + 37])
        np.testing.assert_allclose(
            np.sort(bulk.search(query, k=10).distances),
            np.sort(incremental.search(query, k=10).distances),
            atol=1e-9,
        )


class TestDelete:
    def test_deleted_points_never_returned(
        self, dynamic_index, small_clustered_data, small_queries
    ):
        query = small_queries[0]
        before = dynamic_index.search(query, k=5)
        removed = dynamic_index.delete(before.indices)
        assert removed == 5
        after = dynamic_index.search(query, k=5)
        assert not set(int(i) for i in before.indices) & set(
            int(i) for i in after.indices
        )
        # The query's own neighbours were deleted, so the static index's
        # first fetch runs short and the answer comes from the fallback.
        live = np.ones(len(small_clustered_data), dtype=bool)
        live[before.indices] = False
        truth = _exact_distances(small_clustered_data[live], query, 5)
        np.testing.assert_allclose(
            np.sort(after.distances), np.sort(truth), atol=1e-9
        )

    def test_delete_is_idempotent(self, dynamic_index):
        assert dynamic_index.delete([0, 1, 2]) == 3
        assert dynamic_index.delete([0, 1, 2]) == 0

    def test_delete_unknown_id_is_noop(self, dynamic_index):
        assert dynamic_index.delete([10**9]) == 0

    def test_delete_then_reinsert(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0)
        ids = index.insert(gaussian_blob)
        index.delete(ids[:10])
        new_ids = index.insert(gaussian_blob[:10])
        assert index.num_points == gaussian_blob.shape[0]
        assert set(int(i) for i in new_ids).isdisjoint(set(int(i) for i in ids))

    def test_matches_rebuilt_static_index_after_deletes(
        self, small_clustered_data, small_queries
    ):
        index = DynamicP2HIndex(random_state=7, auto_rebuild=False)
        ids = index.insert(small_clustered_data)
        index.rebuild()
        to_delete = ids[::5]
        index.delete(to_delete)
        keep_mask = np.ones(len(ids), dtype=bool)
        keep_mask[::5] = False
        remaining = small_clustered_data[keep_mask]
        for query in small_queries[:5]:
            truth = _exact_distances(remaining, query, 10)
            result = index.search(query, k=10)
            np.testing.assert_allclose(
                np.sort(result.distances), np.sort(truth), atol=1e-9
            )


class TestRebuild:
    def test_auto_rebuild_triggers(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0, rebuild_threshold=0.1)
        index.insert(gaussian_blob[:200])
        rebuilds_before = index.num_rebuilds
        index.insert(gaussian_blob[200:300])  # 50% of the static size
        assert index.num_rebuilds > rebuilds_before
        assert index.buffer_size == 0

    def test_manual_rebuild_purges_tombstones(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0, auto_rebuild=False)
        ids = index.insert(gaussian_blob)
        index.rebuild()
        index.delete(ids[:20])
        assert index.num_tombstones == 20
        index.rebuild()
        assert index.num_tombstones == 0
        assert index.num_points == gaussian_blob.shape[0] - 20

    def test_rebuild_trigger_counts_buffer_rows_and_tombstones(self):
        """A rebuild runs the first time buffer rows (deleted ones included)
        plus tombstones exceed ``rebuild_threshold`` x the static size:
        here 0.05 x 1,000 = 50, reached by the 7th update's inserts."""
        rng = np.random.default_rng(11)
        index = DynamicP2HIndex(random_state=0, rebuild_threshold=0.05)
        static_ids = index.insert(rng.normal(size=(1000, 6)))
        assert index.num_rebuilds == 1
        for update in range(1, 8):
            new_ids = index.insert(rng.normal(size=(4, 6)))
            assert index.num_rebuilds == (2 if update == 7 else 1)
            # Two of the four deletes hit rows still in the buffer.
            removed = index.delete(np.concatenate(
                [new_ids[:2], static_ids[2 * update: 2 * update + 2]]
            ))
            assert removed == 4
            assert index.num_rebuilds == (2 if update == 7 else 1)
            if update < 7:
                assert index.buffer_size == 4 * update
                assert index.num_tombstones == 4 * update
        assert index.buffer_size == 0
        assert index.num_tombstones == 4
        assert index.num_points == 1000

    def test_rebuild_on_empty_index(self):
        index = DynamicP2HIndex(random_state=0)
        index.rebuild()
        assert index.num_points == 0

    def test_custom_factory_is_used(self, gaussian_blob):
        calls = []

        def factory():
            calls.append(1)
            return BallTree(leaf_size=32, random_state=0)

        index = DynamicP2HIndex(index_factory=factory)
        index.insert(gaussian_blob)
        index.rebuild()
        assert calls


class TestAccessorsAndValidation:
    def test_point_roundtrip(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0, auto_rebuild=False)
        ids = index.insert(gaussian_blob[:50])
        np.testing.assert_allclose(index.point(ids[7]), gaussian_blob[7])
        index.rebuild()
        np.testing.assert_allclose(index.point(ids[7]), gaussian_blob[7])

    def test_point_raises_for_deleted(self, gaussian_blob):
        index = DynamicP2HIndex(random_state=0)
        ids = index.insert(gaussian_blob[:10])
        index.delete([ids[0]])
        with pytest.raises(KeyError):
            index.point(ids[0])

    def test_search_empty_index_raises(self, rng):
        with pytest.raises(NotFittedError):
            DynamicP2HIndex().search(rng.normal(size=9), k=1)

    def test_search_after_deleting_everything_raises(self, gaussian_blob, rng):
        index = DynamicP2HIndex(random_state=0)
        ids = index.insert(gaussian_blob[:20])
        index.delete(ids)
        with pytest.raises(NotFittedError):
            index.search(rng.normal(size=gaussian_blob.shape[1] + 1), k=1)

    def test_invalid_rebuild_threshold(self):
        with pytest.raises(ValueError):
            DynamicP2HIndex(rebuild_threshold=0.0)

    def test_bad_k_rejected(self, dynamic_index, small_queries):
        with pytest.raises(ValueError):
            dynamic_index.search(small_queries[0], k=0)


class TestDynamicProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000), delete_top_k=st.booleans())
    def test_random_insert_delete_sequences_stay_exact(self, seed, delete_top_k):
        """After an arbitrary insert/delete sequence the dynamic index answers
        exactly like a linear scan over the surviving points.  Rounds delete
        random ids, or the query's current top-k (the deletion pattern that
        leaves the static index's first fetch short)."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 8))
        query = rng.normal(size=d + 1)
        index = DynamicP2HIndex(random_state=seed, rebuild_threshold=0.3)
        live = {}
        next_rows = rng.normal(size=(60, d))
        ids = index.insert(next_rows)
        live.update({int(i): row for i, row in zip(ids, next_rows)})

        for _ in range(3):
            extra = rng.normal(size=(int(rng.integers(5, 25)), d))
            new_ids = index.insert(extra)
            live.update({int(i): row for i, row in zip(new_ids, extra)})
            if delete_top_k:
                to_drop = [int(i) for i in index.search(query, k=5).indices]
            else:
                candidates = list(live)
                to_drop = [
                    candidates[int(j)]
                    for j in rng.integers(
                        0, len(candidates), size=min(8, len(candidates))
                    )
                ]
            index.delete(to_drop)
            for dropped in to_drop:
                live.pop(dropped, None)

            surviving = np.vstack([live[key] for key in sorted(live)])
            expected = _exact_distances(surviving, query, min(5, len(live)))
            result = index.search(query, k=min(5, len(live)))
            np.testing.assert_allclose(
                np.sort(result.distances), np.sort(expected), atol=1e-9
            )
