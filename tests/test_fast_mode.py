"""Fast search mode (``exact=False``): recall guarantee, exact-path
bit-identity, option validation, kernel parity, dispatch, persistence.

The fast mode trades the engine's bit-identity contract for throughput:
float32 storage, one cross-query GEMM per node-bound table, batched leaf
verification, and compiled (or NumPy-fallback) top-k kernels.  Its
*correctness* contract is therefore different in kind from the exact
path's, and this suite pins both sides of the line:

* fast results must stay within a float32-cancellation epsilon of the
  exact oracle (property-based, all four tree families, adversarial
  shapes included), and plain set recall must stay >= 0.999 on realistic
  workloads;
* the exact path must remain byte-for-byte untouched — same indices,
  distances, and ``SearchStats`` — before, during, and after fast-mode
  use of the same index, for every pool size;
* fast-mode results are **not** promised to be chunking-invariant across
  ``n_jobs`` (the shared-frontier majority vote depends on group
  composition), so nothing here asserts bitwise equality between fast
  runs — only recall against the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BallTree, BCTree, KDTree, LinearScan, NHIndex, RPTree
from repro.api import SearchOptions, Searcher, build_index
from repro.api.persistence import (
    load_index,
    save_index,
    saved_storage_dtype,
)
from repro.core.results import TopKCollector
from repro.engine import kernels
from repro.engine.batch import kernel_dispatch_path
from repro.eval.metrics import epsilon_recall, recall_at_k

TREE_FAMILIES = {
    "ball": lambda leaf_size: BallTree(leaf_size=leaf_size, random_state=3),
    "bc": lambda leaf_size: BCTree(leaf_size=leaf_size, random_state=3),
    "kd": lambda leaf_size: KDTree(leaf_size=leaf_size),
    "rp": lambda leaf_size: RPTree(leaf_size=leaf_size, random_state=3),
}

STAT_FIELDS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
    "buckets_probed",
)


def _clustered(num_points=600, dim=12, rng=7):
    generator = np.random.default_rng(rng)
    centers = generator.normal(scale=6.0, size=(6, dim))
    assignments = generator.integers(0, 6, size=num_points)
    return centers[assignments] + generator.normal(
        scale=1.5, size=(num_points, dim)
    )


def _queries(points, num_queries, rng=11):
    generator = np.random.default_rng(rng)
    queries = generator.normal(size=(num_queries, points.shape[1] + 1))
    return queries


def _fast_tolerance(index):
    """Absolute float32-cancellation bound for ``epsilon_recall``."""
    max_norm = float(np.max(np.linalg.norm(index.points, axis=1)))
    # 4x safety factor on the dim * eps32 * ||x|| * ||q|| rounding model
    # (queries are normalized to unit normal before searching).
    return 4.0 * index.dim * float(np.finfo(np.float32).eps) * max_norm


def _assert_fast_matches_oracle(exact_results, fast_results, index):
    abs_tol = _fast_tolerance(index)
    for exact_r, fast_r in zip(exact_results, fast_results):
        eps = epsilon_recall(
            fast_r.distances, exact_r.distances, abs_tol=abs_tol
        )
        assert eps == 1.0, (
            f"fast-mode distances {fast_r.distances} exceed the epsilon "
            f"band of the exact oracle {exact_r.distances}"
        )
        assert len(fast_r.indices) == len(exact_r.indices)
        # Returned ids must be real, distinct points.
        assert len(set(int(i) for i in fast_r.indices)) == len(fast_r.indices)


# ----------------------------------------------------------- option parsing


class TestSearchOptions:
    def test_defaults_stay_exact(self):
        options = SearchOptions(k=5)
        assert options.exact is True
        assert "exact" not in options.search_kwargs()

    def test_fast_mode_kwargs(self):
        options = SearchOptions(k=5, exact=False)
        kwargs = options.search_kwargs()
        assert kwargs["exact"] is False
        assert "dtype" not in kwargs

    def test_dtype_requires_fast_mode(self):
        with pytest.raises(ValueError, match="exact=False"):
            SearchOptions(k=5, dtype="float32")

    def test_dtype_validated(self):
        with pytest.raises(ValueError, match="float32"):
            SearchOptions(k=5, exact=False, dtype="int8")
        options = SearchOptions(k=5, exact=False, dtype="float64")
        assert options.search_kwargs()["dtype"] == "float64"

    def test_profile_rejected_in_fast_mode(self):
        with pytest.raises(ValueError, match="profile"):
            SearchOptions(k=5, exact=False, profile=True)

    def test_exact_must_be_bool(self):
        with pytest.raises(TypeError, match="exact"):
            SearchOptions(k=5, exact=0.5)

    def test_to_dict_round_trip(self):
        options = SearchOptions(k=5, exact=False, dtype="float32")
        rebuilt = SearchOptions.from_kwargs(**options.search_kwargs(), k=5)
        assert rebuilt.exact is False
        assert rebuilt.dtype == "float32"


# --------------------------------------------------------------- dispatch


class TestDispatchPath:
    def test_tree_paths(self):
        points = _clustered(200)
        index = BCTree(leaf_size=32, random_state=0).fit(points)
        assert kernel_dispatch_path(index) == "kernel"
        assert kernel_dispatch_path(index, exact=False) == "fast-gemm"
        assert (
            kernel_dispatch_path(index, exact=False, candidate_fraction=0.2)
            == "fast-gemm"
        )
        assert kernel_dispatch_path(index, profile=True) == "kernel"

    def test_sequential_scan_mode_goes_fast(self):
        points = _clustered(200)
        index = BCTree(
            leaf_size=32, random_state=0, scan_mode="sequential"
        ).fit(points)
        # The exact sequential scan runs on the block kernel (one query
        # per sub-block); the fast mode never evaluates point-level
        # bounds, so it takes the GEMM kernel.
        assert kernel_dispatch_path(index) == "kernel"
        assert kernel_dispatch_path(index, exact=False) == "fast-gemm"

    def test_non_tree_indexes_reject_fast_mode(self):
        points = _clustered(200)
        query = _queries(points, 1)[0]
        for index, path in (
            (NHIndex(num_tables=4, random_state=0), "kernel"),
            (LinearScan(), "per-query"),
        ):
            index.fit(points)
            assert kernel_dispatch_path(index) == path
            with pytest.raises(TypeError, match="exact"):
                index.search(query, 5, exact=False)

    def test_profile_plus_fast_rejected_at_search(self):
        points = _clustered(200)
        index = BallTree(leaf_size=32, random_state=0).fit(points)
        query = _queries(points, 1)[0]
        with pytest.raises(ValueError, match="profile"):
            index.search(query, 5, exact=False, profile=True)
        with pytest.raises(ValueError, match="exact=False"):
            index.search(query, 5, dtype="float32")


# ------------------------------------------------------- kernel primitives


class TestKernelPrimitives:
    def _reference_topk(self, k, entries):
        """Brute-force top-k (distance multiset) from (distance, id) pairs."""
        entries = sorted(entries)[:k]
        return [d for d, _ in entries]

    def test_offer_rows_matches_collector(self):
        rng = np.random.default_rng(5)
        B, k = 7, 4
        top_d = np.full((B, k), np.inf)
        top_i = np.full((B, k), -1, dtype=np.int64)
        thr = np.full(B, np.inf)
        collectors = [TopKCollector(k) for _ in range(B)]
        next_id = 0
        for _ in range(6):
            g = int(rng.integers(1, B + 1))
            width = int(rng.integers(1, 9))
            live = rng.choice(B, size=g, replace=False).astype(np.int64)
            D = rng.random((g, width))
            ids = np.arange(next_id, next_id + width, dtype=np.int64)
            next_id += width
            kernels._offer_rows_numpy(D, live, width, ids, top_d, top_i, thr)
            for row, q in enumerate(live):
                for col in range(width):
                    collectors[q].offer(int(ids[col]), float(D[row, col]))
        for q in range(B):
            expected_d = collectors[q].to_result().distances
            got = top_d[q][np.isfinite(top_d[q])]
            np.testing.assert_allclose(np.sort(got), np.sort(expected_d))
            assert np.all(np.diff(top_d[q]) >= 0)
            assert thr[q] == top_d[q, k - 1]

    def test_offer_rows_respects_warm_threshold(self):
        # A warm-start threshold that equals a candidate's distance
        # exactly must still admit that candidate (<= semantics), and an
        # unfilled top-k must never loosen the finite threshold back to
        # +inf.
        k = 2
        top_d = np.full((1, k), np.inf)
        top_i = np.full((1, k), -1, dtype=np.int64)
        thr = np.array([0.5])
        D = np.array([[0.5, 0.9]])
        kernels._offer_rows_numpy(
            D, np.array([0]), 2, np.arange(2, dtype=np.int64),
            top_d, top_i, thr,
        )
        assert top_d[0, 0] == 0.5
        assert top_i[0, 0] == 0
        assert top_i[0, 1] == -1  # 0.9 > thr stays out
        assert thr[0] == 0.5  # min-clamped: +inf k-th slot didn't loosen it

    def test_scan_leaf_matches_collector(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(30, 6))
        query = rng.normal(size=6)
        query /= np.linalg.norm(query)
        ids = rng.permutation(30).astype(np.int64)
        k = 5
        top_d = np.full((1, k), np.inf)
        top_i = np.full((1, k), -1, dtype=np.int64)
        thr = kernels._scan_leaf_numpy(
            points, 3, 27, query, ids, top_d, top_i, 0, np.inf
        )
        collector = TopKCollector(k)
        for row in range(3, 27):
            collector.offer(
                int(ids[row]), float(abs(points[row] @ query))
            )
        expected_d = collector.to_result().distances
        np.testing.assert_allclose(top_d[0], expected_d)
        assert thr == top_d[0, k - 1]

    def test_backend_reports(self):
        assert kernels.kernel_backend() in ("numba", "numpy")
        assert kernels.NUMBA_AVAILABLE == (
            kernels.kernel_backend() == "numba"
        )


# ------------------------------------------------- fast vs exact (fixed)


class TestFastRecall:
    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_recall_floor_all_families(self, family):
        points = _clustered(900, dim=16)
        queries = _queries(points, 64)
        index = TREE_FAMILIES[family](48).fit(points)
        exact_batch = index.batch_search(queries, k=10)
        fast_batch = index.batch_search(queries, k=10, exact=False)
        _assert_fast_matches_oracle(exact_batch, fast_batch, index)
        plain = np.mean(
            [
                recall_at_k(f.indices, e.indices)
                for e, f in zip(exact_batch, fast_batch)
            ]
        )
        assert plain >= 0.999

    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_single_query_fast_path(self, family):
        points = _clustered(400)
        queries = _queries(points, 8)
        index = TREE_FAMILIES[family](32).fit(points)
        for query in queries:
            exact_r = index.search(query, 6)
            fast_r = index.search(query, 6, exact=False)
            _assert_fast_matches_oracle([exact_r], [fast_r], index)
            assert fast_r.stats.nodes_visited >= 1

    def test_float64_storage_dtype(self):
        points = _clustered(400)
        queries = _queries(points, 16)
        index = BCTree(leaf_size=32, random_state=0).fit(points)
        exact_batch = index.batch_search(queries, k=8)
        fast64 = index.batch_search(queries, k=8, exact=False, dtype="float64")
        # float64 fast mode has no cancellation band to hide in: the
        # result *sets* must match the oracle (order of exact ties may
        # differ).
        for exact_r, fast_r in zip(exact_batch, fast64):
            np.testing.assert_allclose(
                np.sort(fast_r.distances), np.sort(exact_r.distances),
                rtol=1e-9, atol=1e-12,
            )

    def test_fast_mode_with_budget(self):
        points = _clustered(600)
        queries = _queries(points, 24)
        index = BallTree(leaf_size=32, random_state=0).fit(points)
        batch = index.batch_search(
            queries, k=8, exact=False, candidate_fraction=0.5
        )
        exact_batch = index.batch_search(queries, k=8)
        # A budgeted fast search may stop early; every returned distance
        # must still be a real |<x, q>| and the stats must reflect the cap.
        for fast_r, exact_r in zip(batch, exact_batch):
            assert len(fast_r.indices) <= len(exact_r.indices)
            assert np.all(np.diff(fast_r.distances) >= -1e-12)

    def test_sequential_scan_mode_runs_fast_kernel(self):
        points = _clustered(500)
        queries = _queries(points, 16)
        index = BCTree(
            leaf_size=32, random_state=0, scan_mode="sequential"
        ).fit(points)
        exact_batch = index.batch_search(queries, k=8)
        fast_batch = index.batch_search(queries, k=8, exact=False)
        _assert_fast_matches_oracle(exact_batch, fast_batch, index)


# ------------------------------------------- exact-path bit-identity guard


class TestExactPathUntouched:
    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_exact_true_is_default_path(self, family):
        points = _clustered(400)
        queries = _queries(points, 6)
        index = TREE_FAMILIES[family](32).fit(points)
        for query in queries:
            default_r = index.search(query, 7)
            explicit_r = index.search(query, 7, exact=True)
            np.testing.assert_array_equal(
                default_r.indices, explicit_r.indices
            )
            np.testing.assert_array_equal(
                default_r.distances, explicit_r.distances
            )
            for field in STAT_FIELDS:
                assert getattr(default_r.stats, field) == getattr(
                    explicit_r.stats, field
                )

    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_exact_results_stable_across_fast_use(self, family):
        """Interleaved fast searches must not perturb the exact path."""
        points = _clustered(500)
        queries = _queries(points, 12)
        index = TREE_FAMILIES[family](32).fit(points)
        before = index.batch_search(queries, k=9)
        index.batch_search(queries, k=9, exact=False)
        for query in queries:
            index.search(query, 9, exact=False)
        after = index.batch_search(queries, k=9)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b.indices, a.indices)
            np.testing.assert_array_equal(b.distances, a.distances)
            for field in STAT_FIELDS:
                assert getattr(b.stats, field) == getattr(a.stats, field)

    def test_exact_bit_identity_across_pools(self):
        points = _clustered(500)
        queries = _queries(points, 16)
        index = BCTree(leaf_size=32, random_state=0).fit(points)
        index.batch_search(queries, k=8, exact=False)  # warm fast arrays
        reference = [index.search(q, 8) for q in queries]
        for n_jobs in (1, 2, 3):
            batch = index.batch_search(queries, k=8, n_jobs=n_jobs)
            for got, expected in zip(batch, reference):
                np.testing.assert_array_equal(got.indices, expected.indices)
                np.testing.assert_array_equal(
                    got.distances, expected.distances
                )
                for field in STAT_FIELDS:
                    assert getattr(got.stats, field) == getattr(
                        expected.stats, field
                    )


# ------------------------------------------------------------- sessions


class TestSearcherSession:
    def test_fast_session_across_pools(self):
        points = _clustered(500)
        queries = _queries(points, 20)
        index = build_index("bc_tree", leaf_size=32, random_state=0).fit(
            points
        )
        exact_batch = index.batch_search(queries, k=8)
        for n_jobs in (1, 2):
            options = SearchOptions(k=8, n_jobs=n_jobs, exact=False)
            with Searcher(index, options) as searcher:
                fast_batch = searcher.batch_search(queries)
                _assert_fast_matches_oracle(exact_batch, fast_batch, index)
                # Same warm session answers a second round (pool reuse).
                again = searcher.batch_search(queries)
                _assert_fast_matches_oracle(exact_batch, again, index)

    def test_session_mode_switch_keeps_exact_bits(self):
        points = _clustered(400)
        queries = _queries(points, 12)
        index = build_index("ball_tree", leaf_size=32, random_state=0).fit(
            points
        )
        reference = index.batch_search(queries, k=6)
        with Searcher(index, SearchOptions(k=6, n_jobs=2)) as searcher:
            exact_batch = searcher.batch_search(queries)
            fast_batch = searcher.batch_search(queries, exact=False)
            exact_again = searcher.batch_search(queries)
        for got in (exact_batch, exact_again):
            for got_r, expected_r in zip(got, reference):
                np.testing.assert_array_equal(
                    got_r.indices, expected_r.indices
                )
                np.testing.assert_array_equal(
                    got_r.distances, expected_r.distances
                )
        _assert_fast_matches_oracle(reference, fast_batch, index)


# ------------------------------------------------------------ persistence


class TestStorageDtypePersistence:
    def test_round_trip_records_dtype(self, tmp_path):
        points = _clustered(200)
        index = build_index("bc_tree", leaf_size=32, random_state=0).fit(
            points
        )
        path = tmp_path / "index.bin"
        save_index(index, path)
        assert saved_storage_dtype(path) == "float64"
        loaded = load_index(path)
        queries = _queries(points, 4)
        exact_batch = loaded.batch_search(queries, k=5)
        fast_batch = loaded.batch_search(queries, k=5, exact=False)
        _assert_fast_matches_oracle(exact_batch, fast_batch, loaded)

    def test_legacy_payload_reads_none(self, tmp_path):
        import pickle

        path = tmp_path / "legacy.bin"
        index = BallTree(leaf_size=16, random_state=0).fit(_clustered(50))
        with path.open("wb") as handle:
            pickle.dump(index, handle)
        assert saved_storage_dtype(path) is None

    def test_pre_dtype_envelope_reads_none(self, tmp_path):
        from repro.utils.persistence import (
            FORMAT_NAME,
            FORMAT_VERSION,
        )
        import pickle

        path = tmp_path / "old_envelope.bin"
        index = BallTree(leaf_size=16, random_state=0).fit(_clustered(50))
        header = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "spec": None,
        }
        with path.open("wb") as handle:
            pickle.dump(header, handle)
            pickle.dump(index, handle)
        assert saved_storage_dtype(path) is None
        assert isinstance(load_index(path), BallTree)


# ---------------------------------------------------------- property-based


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

coords = st.floats(-8.0, 8.0, width=16)


@st.composite
def fast_problems(draw):
    """Random (points, queries, k, leaf_size) for the fast-mode property."""
    n = draw(st.integers(min_value=4, max_value=60))
    dim = draw(st.integers(min_value=2, max_value=6))
    points = draw(hnp.arrays(np.float64, (n, dim), elements=coords))
    num_queries = draw(st.integers(min_value=1, max_value=5))
    queries = draw(
        hnp.arrays(
            np.float64,
            (num_queries, dim + 1),
            elements=st.floats(-4.0, 4.0, width=16),
        )
    )
    for row in queries:
        if float(np.linalg.norm(row[:-1])) <= 0.0:
            row[0] = 1.0
    k = draw(st.integers(min_value=1, max_value=12))
    leaf_size = draw(st.integers(min_value=2, max_value=24))
    return points, queries, k, leaf_size


class TestFastModeProperties:
    @given(data=fast_problems(), family=st.sampled_from(sorted(TREE_FAMILIES)))
    def test_fast_within_epsilon_of_oracle(self, data, family):
        points, queries, k, leaf_size = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        exact_results = [index.search(q, k) for q in queries]
        fast_results = [index.search(q, k, exact=False) for q in queries]
        _assert_fast_matches_oracle(exact_results, fast_results, index)
        batch = index.batch_search(queries, k=k, exact=False)
        _assert_fast_matches_oracle(exact_results, batch, index)

    @given(data=fast_problems(), family=st.sampled_from(sorted(TREE_FAMILIES)))
    def test_exact_path_bit_identical_after_fast(self, data, family):
        points, queries, k, leaf_size = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        before = [index.search(q, k) for q in queries]
        index.batch_search(queries, k=k, exact=False)
        after = [index.search(q, k) for q in queries]
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b.indices, a.indices)
            np.testing.assert_array_equal(b.distances, a.distances)
            for field in STAT_FIELDS:
                assert getattr(b.stats, field) == getattr(a.stats, field)
