"""Fast search mode (``exact=False``): recall guarantee, exact-path
bit-identity, row invariance, option validation, dispatch, persistence.

The fast mode trades the engine's bit-identity contract for throughput:
float32 storage and one leaf admission rule (each leaf's own bound, a
seed, then the first quarter and the rest of the admitted leaves),
verified one row at a time (GEMVs) in blocks of at most
``ROW_SWEEP_LIMIT`` rows and leaf-major (GEMMs) above.  Its *correctness*
contract is therefore different in kind from the exact path's, and this
suite pins both sides of the line:

* fast results must stay within a float32-cancellation epsilon of the
  exact oracle (property-based, all four tree families, adversarial
  shapes included), and plain set recall must stay >= 0.999 on realistic
  workloads;
* the exact path must remain byte-for-byte untouched — same indices,
  distances, and ``SearchStats`` — before, during, and after fast-mode
  use of the same index, for every pool size;
* a row of a block of at most ``ROW_SWEEP_LIMIT`` rows answers exactly
  as its one-row ``search`` does — ids, distance bytes and counters —
  whatever its block-mates and position (``TestRowInvariance``; CI also
  runs it on a second OpenBLAS kernel).  Taller blocks promise recall
  only: their GEMMs round a row by its block-mates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BallTree,
    BCTree,
    DynamicP2HIndex,
    KDTree,
    LinearScan,
    NHIndex,
    PartitionedP2HIndex,
    RPTree,
)
from repro.api import SearchOptions, Searcher, build_index
from repro.api.persistence import (
    load_index,
    save_index,
    saved_storage_dtype,
)
from repro.core.best_first import BestFirstSearcher
from repro.core.distances import normalize_query
from repro.core.mips import BallTreeMIPS
from repro.engine import fast
from repro.engine.batch import kernel_dispatch_path
from repro.engine.budget import resolve_budget
from repro.engine.fast import ROW_SWEEP_LIMIT, FastTreeKernel
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


def _leaf_sizes(index):
    """Point counts of the index's non-empty leaves."""
    tree = index.tree
    is_leaf = tree.left_child == -1
    sizes = tree.end[is_leaf] - tree.start[is_leaf]
    return sizes[sizes > 0]


def _assert_real_answers(index, query, result, k):
    """Distinct ids, ascending distances, each its point's own distance."""
    assert len(result.indices) <= k
    assert len(set(result.indices.tolist())) == len(result.indices)
    assert np.all(np.diff(result.distances) >= 0.0)
    normalized = normalize_query(query)
    true = np.abs(index.points[result.indices] @ normalized)
    # the offset coordinate can make ||q|| exceed 1 after normalization
    tolerance = _fast_tolerance(index) * float(np.linalg.norm(normalized))
    np.testing.assert_allclose(result.distances, true, rtol=0.0, atol=tolerance)


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
            (LinearScan(), "kernel"),
        ):
            index.fit(points)
            assert kernel_dispatch_path(index) == path
            with pytest.raises(TypeError, match="exact"):
                index.search(query, 5, exact=False)

    def test_dispatch_rejects_fast_mode_without_a_fast_tier(self):
        points = _clustered(200)
        tree = BCTree(leaf_size=32, random_state=0).fit(points)
        for index in (
            LinearScan().fit(points),
            NHIndex(num_tables=4, random_state=0).fit(points),
            BestFirstSearcher(tree),
        ):
            with pytest.raises(TypeError, match="exact"):
                kernel_dispatch_path(index, exact=False)
            with pytest.raises(TypeError, match="exact"):
                index.batch_search(_queries(points, 3), k=5, exact=False)

    def test_mips_rejects_fast_mode_like_its_batch_search(self):
        points = _clustered(200)
        index = BallTreeMIPS(leaf_size=32, random_state=0).fit(points)
        queries = np.random.default_rng(3).normal(size=(3, points.shape[1]))
        assert kernel_dispatch_path(index) == "kernel"
        with pytest.raises(TypeError, match="exact"):
            index.batch_search(queries, k=5, exact=False)
        with pytest.raises(TypeError, match="exact"):
            kernel_dispatch_path(index, exact=False)

    @pytest.mark.parametrize("composite", ["dynamic", "partitioned"])
    def test_composites_report_their_trees_fast_kernel(
        self, composite, monkeypatch
    ):
        points = _clustered(300)
        if composite == "dynamic":
            index = DynamicP2HIndex(random_state=0)
            index.insert(points)
        else:
            index = PartitionedP2HIndex(num_partitions=2, random_state=0)
            index.fit(points)
        blocks = []
        search_block = FastTreeKernel.search_block

        def spy(kernel, matrix, k, **options):
            blocks.append(matrix.shape[0])
            return search_block(kernel, matrix, k, **options)

        monkeypatch.setattr(FastTreeKernel, "search_block", spy)
        queries = _queries(points, 3)
        assert kernel_dispatch_path(index) == "kernel"
        index.batch_search(queries, k=5)
        assert blocks == []
        assert kernel_dispatch_path(index, exact=False) == "fast-gemm"
        index.batch_search(queries, k=5, exact=False)
        # the dynamic index's static tree, or each of the two shards
        assert blocks == [3] * (1 if composite == "dynamic" else 2)

    def test_dynamic_path_follows_its_static_tree(self):
        points = _clustered(100)
        index = DynamicP2HIndex(random_state=0, auto_rebuild=False)
        index.insert(points)
        assert kernel_dispatch_path(index, exact=False) == "kernel"
        index.rebuild()
        assert kernel_dispatch_path(index, exact=False) == "fast-gemm"

    def test_profile_plus_fast_rejected_at_search(self):
        points = _clustered(200)
        index = BallTree(leaf_size=32, random_state=0).fit(points)
        query = _queries(points, 1)[0]
        with pytest.raises(ValueError, match="profile"):
            index.search(query, 5, exact=False, profile=True)
        with pytest.raises(ValueError, match="exact=False"):
            index.search(query, 5, dtype="float32")


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

    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_one_row_budget_overshoots_at_most_one_leaf(self, family):
        points = _clustered(600)
        queries = _queries(points, 6)
        index = TREE_FAMILIES[family](32).fit(points)
        largest = int(_leaf_sizes(index).max())
        for budget in (1, 10, 33, 100, 250):
            for query in queries:
                result = index.search(
                    query, 8, exact=False, max_candidates=budget
                )
                assert result.stats.candidates_verified <= budget + largest
                _assert_real_answers(index, query, result, 8)

    def test_sequential_scan_mode_runs_fast_kernel(self):
        points = _clustered(500)
        queries = _queries(points, 16)
        index = BCTree(
            leaf_size=32, random_state=0, scan_mode="sequential"
        ).fit(points)
        exact_batch = index.batch_search(queries, k=8)
        fast_batch = index.batch_search(queries, k=8, exact=False)
        _assert_fast_matches_oracle(exact_batch, fast_batch, index)


class TestLeafSweep:
    """The block height picks the verifier: per-row sweeps up to
    ``ROW_SWEEP_LIMIT`` rows, the leaf-major passes above."""

    @staticmethod
    def _spy_runs(monkeypatch):
        runs = []
        run = FastTreeKernel._run

        def spy(kernel, Q, k, budget, verifier_cls):
            runs.append((Q.shape[0], verifier_cls))
            return run(kernel, Q, k, budget, verifier_cls)

        monkeypatch.setattr(FastTreeKernel, "_run", spy)
        return runs

    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_one_row_search_is_one_sweep_of_every_leaf(
        self, family, monkeypatch
    ):
        points = _clustered(500)
        queries = _queries(points, 5)
        index = TREE_FAMILIES[family](16).fit(points)
        num_leaves = _leaf_sizes(index).shape[0]
        runs = self._spy_runs(monkeypatch)
        for query in queries:
            result = index.search(query, 7, exact=False)
            # every leaf's bound is read; no node is expanded
            assert result.stats.nodes_visited == num_leaves
            assert result.stats.leaves_scanned <= num_leaves
            if family != "kd":
                assert result.stats.center_inner_products == 1
        assert runs == [(1, fast._RowSweeps)] * len(queries)

    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_block_height_picks_the_verifier(self, family, monkeypatch):
        points = _clustered(800)
        queries = _queries(points, ROW_SWEEP_LIMIT + 1)
        index = TREE_FAMILIES[family](4).fit(points)
        num_leaves = _leaf_sizes(index).shape[0]
        exact = [index.search(query, 6) for query in queries]
        runs = self._spy_runs(monkeypatch)
        swept = index.batch_search(queries[:-1], k=6, exact=False)
        assert runs == [(ROW_SWEEP_LIMIT, fast._RowSweeps)]
        leaf_major = index.batch_search(queries, k=6, exact=False)
        assert runs[1:] == [(ROW_SWEEP_LIMIT + 1, fast._LeafMajor)]
        _assert_fast_matches_oracle(exact, swept, index)
        _assert_fast_matches_oracle(exact, leaf_major, index)
        for result in leaf_major:
            assert result.stats.nodes_visited == num_leaves
            assert 1 <= result.stats.leaves_scanned <= num_leaves

    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_leaf_major_budget_overshoots_at_most_one_leaf(self, family):
        points = _clustered(600)
        queries = _queries(points, ROW_SWEEP_LIMIT + 1)
        index = TREE_FAMILIES[family](32).fit(points)
        largest = int(_leaf_sizes(index).max())
        for budget in (1, 33, 250):
            batch = index.batch_search(
                queries, k=8, exact=False, max_candidates=budget
            )
            for query, result in zip(queries, batch):
                assert result.stats.candidates_verified <= budget + largest
                _assert_real_answers(index, query, result, 8)

    def test_float64_leaf_major_block_matches_oracle(self):
        points = _clustered(400)
        queries = _queries(points, ROW_SWEEP_LIMIT + 1)
        index = BCTree(leaf_size=32, random_state=0).fit(points)
        exact_batch = index.batch_search(queries, k=8)
        fast64 = index.batch_search(queries, k=8, exact=False, dtype="float64")
        for exact_r, fast_r in zip(exact_batch, fast64):
            np.testing.assert_allclose(
                np.sort(fast_r.distances), np.sort(exact_r.distances),
                rtol=1e-9, atol=1e-12,
            )


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
def fast_problems(draw, with_options=False):
    """Random (points, queries, k, leaf_size) for the fast-mode property.

    The draws include the shapes the finisher's leaf sweep must handle:
    k above the leaf size (its seed then verifies several leaves), k at
    or above n, ``leaf_size=1`` and duplicate rows.  ``with_options=True``
    appends one fast-mode option dict: a ``max_candidates`` or
    ``candidate_fraction`` budget, or ``dtype="float64"``.
    """
    n = draw(st.integers(min_value=4, max_value=60))
    dim = draw(st.integers(min_value=2, max_value=6))
    points = draw(hnp.arrays(np.float64, (n, dim), elements=coords))
    duplicates = draw(st.integers(min_value=0, max_value=n // 2))
    if duplicates:
        points[n - duplicates:] = points[:duplicates]
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
    k = draw(st.integers(min_value=1, max_value=n + 2))
    leaf_size = draw(st.integers(min_value=1, max_value=24))
    if not with_options:
        return points, queries, k, leaf_size
    option = draw(
        st.sampled_from(["max_candidates", "candidate_fraction", "dtype"])
    )
    if option == "max_candidates":
        options = {"max_candidates": draw(st.integers(1, n))}
    elif option == "candidate_fraction":
        options = {"candidate_fraction": draw(st.floats(0.01, 1.0))}
    else:
        options = {"dtype": "float64"}
    return points, queries, k, leaf_size, options


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

    @given(
        data=fast_problems(with_options=True),
        family=st.sampled_from(sorted(TREE_FAMILIES)),
    )
    def test_fast_options_keep_their_contract(self, data, family):
        points, queries, k, leaf_size, options = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        rows = [index.search(q, k, exact=False, **options) for q in queries]
        batch = index.batch_search(queries, k=k, exact=False, **options)
        if "dtype" in options:
            exact_results = [index.search(q, k) for q in queries]
            _assert_fast_matches_oracle(exact_results, rows, index)
            _assert_fast_matches_oracle(exact_results, batch, index)
            return
        # A budget may stop a search short, but never past one leaf.
        budget = resolve_budget(
            options.get("candidate_fraction"),
            options.get("max_candidates"),
            index.num_points,
        )
        largest = int(_leaf_sizes(index).max())
        for query, row, batch_row in zip(queries, rows, batch):
            for result in (row, batch_row):
                _assert_real_answers(index, query, result, k)
                assert result.stats.candidates_verified <= budget + largest


def _assert_same_answer(got, want):
    """Ids, distance bytes and work counters all equal."""
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.distances.tobytes() == want.distances.tobytes()
    for field in STAT_FIELDS:
        assert getattr(got.stats, field) == getattr(want.stats, field)


class TestRowInvariance:
    """In a block of at most ``ROW_SWEEP_LIMIT`` rows, a row answers as
    its one-row ``search(q, exact=False)`` does, whatever its block-mates
    and its position."""

    @given(
        data=fast_problems(with_options=True),
        family=st.sampled_from(sorted(TREE_FAMILIES)),
        height=st.integers(1, ROW_SWEEP_LIMIT),
        position=st.integers(0, ROW_SWEEP_LIMIT - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_matches_its_one_row_search(
        self, data, family, height, position, seed
    ):
        points, queries, k, leaf_size, options = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        block = np.random.default_rng(seed).normal(
            size=(height, points.shape[1] + 1)
        )
        position %= height
        block[position] = queries[0]
        got = index.batch_search(block, k=k, exact=False, **options)
        want = index.search(queries[0], k, exact=False, **options)
        _assert_same_answer(got[position], want)

    @pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
    def test_rows_match_one_row_search_at_scale(self, family):
        """Realistic leaf and dimension sizes, where the BLAS kernels take
        their blocked paths."""
        rng = np.random.default_rng(29)
        points = _clustered(3000, dim=40)
        queries = _queries(points, 160, rng=31)
        index = TREE_FAMILIES[family](50).fit(points)
        for target in range(4):
            want = index.search(queries[target], 10, exact=False)
            for height in (2, 7, 33, ROW_SWEEP_LIMIT):
                mates = rng.choice(len(queries), height, replace=False)
                block = queries[mates]
                position = int(rng.integers(height))
                block[position] = queries[target]
                got = index.batch_search(block, k=10, exact=False)
                _assert_same_answer(got[position], want)

    @pytest.mark.parametrize("composite", ["dynamic", "partitioned"])
    def test_composite_rows_match_one_row_search(self, composite):
        points = _clustered(900, dim=10)
        queries = _queries(points, ROW_SWEEP_LIMIT)
        if composite == "dynamic":
            index = DynamicP2HIndex(
                index_factory=lambda: BCTree(leaf_size=32, random_state=0),
                auto_rebuild=False,
            )
            ids = index.insert(points[:800])
            index.rebuild()
            index.insert(points[800:])
            index.delete(ids[::7])
            # the first query's top-k is deleted: its margin fetch runs short
            index.delete(index.search(queries[0], k=5).indices)
        else:
            index = PartitionedP2HIndex(num_partitions=3, random_state=0)
            index.fit(points)
        rng = np.random.default_rng(5)
        for height in (1, 5, ROW_SWEEP_LIMIT):
            block = queries[rng.choice(len(queries), height, replace=False)]
            batch = index.batch_search(block, k=5, exact=False)
            for got, query in zip(batch, block):
                _assert_same_answer(got, index.search(query, 5, exact=False))
