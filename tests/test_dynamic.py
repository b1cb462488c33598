"""Tests for the insert/delete-capable dynamic index wrapper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BallTree, LinearScan
from repro.api import build_index, describe_index, load_index, save_index
from repro.core.distances import normalize_query
from repro.core.dynamic import DynamicP2HIndex, _stores_exact_rows
from repro.core.index_base import NotFittedError
from repro.eval import epsilon_recall, exact_ground_truth

COUNTERS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
)


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


class TestBlockKernel:
    """``batch_search`` normalizes a block once and answers it with one
    static ``_block_search`` call at the margin fetch size, one more for
    the rows that ran short, and a per-row GEMV over the live buffer
    rows."""

    K = 5

    def _mixed_state(self):
        """Buffer rows and tombstones together; the top-k of queries 0-3
        deleted, so their margin fetch runs short."""
        rng = np.random.default_rng(41)
        points = rng.normal(size=(600, 8))
        queries = rng.normal(size=(8, 9))
        index = DynamicP2HIndex(random_state=2, auto_rebuild=False)
        index.insert(points[:560])
        index.rebuild()
        for query in queries[:4]:
            index.delete(index.search(query, k=self.K).indices)
        buffered = index.insert(points[560:])
        index.delete(buffered[::4])
        assert index.buffer_size == 40 and index.num_tombstones > 10
        return index, points, queries

    def test_refetch_runs_once_for_the_short_rows(self, monkeypatch):
        index, _, queries = self._mixed_state()
        static = index._static_index
        live = index._static_live
        dead = int(np.count_nonzero(~live))
        # The margin fetch, and the rows it leaves with fewer than k live
        # points.
        fetch = self.K + -(-self.K * dead // (live.size - dead)) + 1
        short = [
            row for row, query in enumerate(queries)
            if np.count_nonzero(
                live[static.search(normalize_query(query), k=fetch).indices]
            ) < self.K
        ]
        assert set(range(4)) <= set(short) and len(short) < len(queries)

        calls = self._spy_static(monkeypatch, static)
        batch = index.batch_search(queries, k=self.K)
        assert [k for _, k in calls] == [fetch, self.K + dead]
        assert calls[0][0].shape[0] == len(queries)
        normalized = np.vstack([normalize_query(q) for q in queries])
        np.testing.assert_array_equal(calls[1][0], normalized[short])

        for row, query in enumerate(queries):
            expected = index.search(query, k=self.K)
            got = batch[row]
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_array_equal(got.distances, expected.distances)
            for field in COUNTERS:
                assert getattr(got.stats, field) == getattr(
                    expected.stats, field
                )

    @staticmethod
    def _spy_static(monkeypatch, static):
        """Record every block and ``k`` the static index is asked for."""
        calls = []
        original = static._block_search

        def spy(block, k, **options):
            calls.append((block.copy(), k))
            return original(block, k, **options)

        monkeypatch.setattr(static, "_block_search", spy)
        return calls

    def test_static_index_receives_the_once_normalized_rows(
        self, monkeypatch
    ):
        """The static index ranks the same normalized rows the buffer
        GEMVs use: normalizing a normalized row again can move its bits."""
        index, _, queries = self._mixed_state()
        normalized = np.vstack([normalize_query(q) for q in queries])
        assert any(
            not np.array_equal(normalize_query(row), row) for row in normalized
        )
        calls = self._spy_static(monkeypatch, index._static_index)
        index.batch_search(queries, k=self.K, exact=False)
        assert calls[0][0].shape == normalized.shape
        assert calls[0][0].tobytes() == normalized.tobytes()

    def test_fast_batches_within_epsilon_of_exact(self):
        """``exact=False`` follows the tree families' fast contract: with
        buffer rows and tombstones present, every row reaches
        epsilon-recall 1.0 against the exact batch."""
        index, points, queries = self._mixed_state()
        exact = index.batch_search(queries, k=self.K)
        fast = index.batch_search(queries, k=self.K, exact=False)
        # The float32 cancellation bound of test_fast_mode, over the
        # augmented points.
        max_norm = float(np.max(np.linalg.norm(points, axis=1)))
        abs_tol = 4.0 * 9 * float(np.finfo(np.float32).eps) * np.hypot(
            max_norm, 1.0
        )
        for exact_row, fast_row in zip(exact, fast):
            assert len(fast_row) == self.K
            assert epsilon_recall(
                fast_row.distances, exact_row.distances, abs_tol=abs_tol
            ) == 1.0


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


def _dynamic_spec(tree_params, **params):
    """A dynamic index over a BC-Tree with ``tree_params``."""
    tree = {"kind": "bc_tree", "params": {"random_state": 3, **tree_params}}
    return {"kind": "dynamic", "params": {"index": tree, **params}}


class TestOneCopyOfThePoints:
    """A dynamic index over a float64 store keeps no raw copy of the
    static rows beside it: the payload is about the static index's."""

    POINTS = np.random.default_rng(9).normal(size=(4000, 32))

    def test_payload_within_1_1x_of_the_static_index(self, tmp_path):
        tree = {"leaf_size": 32}
        static = build_index("bc_tree", random_state=3, **tree).fit(self.POINTS)
        dynamic = build_index(_dynamic_spec(tree))
        dynamic.insert(self.POINTS)
        save_index(static, tmp_path / "static.idx")
        save_index(dynamic, tmp_path / "dynamic.idx")
        static_bytes = describe_index(tmp_path / "static.idx").payload_bytes
        dynamic_bytes = describe_index(tmp_path / "dynamic.idx").payload_bytes
        assert dynamic_bytes <= 1.1 * static_bytes

    def test_mmap_static_rows_stay_out_of_the_main_payload(self, tmp_path):
        dynamic = build_index(_dynamic_spec({"leaf_size": 32, "storage": "mmap"}))
        dynamic.insert(self.POINTS)
        path = tmp_path / "dynamic.idx"
        save_index(dynamic, path)
        info = describe_index(path)
        assert info.storage == {"backend": "mmap", "dtype": "float64"}
        assert info.sidecar_bytes > self.POINTS.nbytes
        assert info.payload_bytes < 0.5 * self.POINTS.nbytes

    @pytest.mark.parametrize("kind,params", [
        ("bc_tree", {"leaf_size": 16}),
        ("kd_tree", {"leaf_size": 16}),
        ("rp_tree", {"leaf_size": 16}),
        ("bc_tree", {"leaf_size": 16, "memory_budget_mb": 0.01}),
        ("linear_scan", {}),
        ("nh", {"num_tables": 4}),
    ])
    def test_float64_stores_return_the_fitted_rows(self, kind, params):
        """What lets the raw copy go: every float64 store gives back the
        rows ``fit`` received, bit for bit, one row or a subset at a time."""
        points = self.POINTS[:500, :7]
        index = build_index(kind, **params).fit(points)
        assert _stores_exact_rows(index)
        wanted = np.array([499, 3, 0, 250, 3])
        out = index._gather_points(wanted, np.empty((wanted.size, 7)))
        assert out.tobytes() == points[wanted].tobytes()
        assert not _stores_exact_rows(index.to_storage("float32"))


STORAGES = ("ram", "mmap", "float32", "mmap32")


class TestExactRowsEveryStorage:
    """``point()`` returns the inserted float64 rows bit for bit, and a
    rebuild answers like a fresh index fed the same history, whatever the
    static store holds: on a fresh index, after a move down to float32 and
    back up, and on a payload saved in the raw-copy layout."""

    K = 5
    RNG = np.random.default_rng(17)
    ROWS = RNG.normal(size=(300, 7))
    EXTRA = RNG.normal(size=(30, 7))
    QUERIES = RNG.normal(size=(6, 8))
    DELETED = [0, 5, 17, 299, 301, 322]

    def _started(self, storage):
        index = build_index(_dynamic_spec(
            {"leaf_size": 16, "storage": storage}, auto_rebuild=False
        ))
        index.insert(self.ROWS)
        index.rebuild()
        return index

    def _raw_copy_layout(self, storage, path):
        """Save the state in the layout that held a raw copy of every
        static row beside the static index, and load it back."""
        fresh = self._started(storage)
        state = dict(fresh.__dict__)
        state["_static_points"] = self.ROWS.copy()
        old = DynamicP2HIndex.__new__(DynamicP2HIndex)
        old.__dict__.update(state)  # pickled as its state, verbatim
        old.save(path)
        return load_index(path)

    def _index(self, storage, variant, tmp_path):
        path = tmp_path / "dynamic.idx"
        if variant == "raw-copy payload":
            return self._raw_copy_layout(storage, path)
        index = self._started(storage)
        if variant == "down and up":
            index.to_storage("float32")
            index.to_storage("ram")
        save_index(index, path)
        return load_index(path)

    def _assert_points_exact(self, index):
        rows = np.vstack([self.ROWS, self.EXTRA])
        for point_id in range(len(rows)):
            if point_id in self.DELETED:
                with pytest.raises(KeyError):
                    index.point(point_id)
            else:
                got = index.point(point_id)
                assert got.dtype == np.float64
                assert got.tobytes() == rows[point_id].tobytes()

    def _assert_same_answers(self, got, want):
        for options in ({}, {"exact": False}, {"max_candidates": 40}):
            a = got.batch_search(self.QUERIES, k=self.K, **options)
            b = want.batch_search(self.QUERIES, k=self.K, **options)
            for row_a, row_b in zip(a, b):
                np.testing.assert_array_equal(row_a.indices, row_b.indices)
                assert row_a.distances.tobytes() == row_b.distances.tobytes()
                for field in COUNTERS:
                    assert getattr(row_a.stats, field) == getattr(
                        row_b.stats, field
                    )

    @pytest.mark.parametrize(
        "variant", ["fresh", "down and up", "raw-copy payload"]
    )
    @pytest.mark.parametrize("storage", STORAGES)
    def test_points_exact_and_rebuild_matches_fresh(
        self, storage, variant, tmp_path
    ):
        index = self._index(storage, variant, tmp_path)
        fresh = self._started(storage)
        for dynamic in (index, fresh):
            dynamic.insert(self.EXTRA)
            dynamic.delete(self.DELETED)
        self._assert_points_exact(index)
        if variant != "down and up":  # its static tree holds rounded rows
            self._assert_same_answers(index, fresh)
        if variant != "fresh":  # the copy stays until the next rebuild
            assert index._static_points is not None
        index.rebuild()
        fresh.rebuild()
        self._assert_points_exact(index)
        self._assert_same_answers(index, fresh)
        for dynamic in (index, fresh):
            assert (dynamic.num_points, dynamic.buffer_size) == (324, 0)
            assert (dynamic.num_tombstones, dynamic.num_rebuilds) == (0, 2)
        # A float64 store is the one copy once rebuilt; a float32 one
        # keeps the raw copy beside it.
        assert (index._static_points is None) == (storage in ("ram", "mmap"))
