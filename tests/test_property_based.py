"""Property-based (Hypothesis) suite for the query-execution engine.

Four families of properties, asserted over randomly drawn (data,
hyperplane, k) problems — including the degenerate shapes hand-written
tests rarely cover (duplicated points, near-zero offsets, single-cluster
blobs, k larger than a leaf, quantized coordinates that force distance
ties):

* **batch == sequential** — ``batch_search`` must return bit-identical
  indices, distances, and work counters to per-query ``search`` for every
  index family.  For the tree indexes ``search`` is the block traversal
  kernel (:mod:`repro.engine.block`) on a one-row block, so this checks
  that a row's answer does not depend on the block or worker chunk it is
  answered in; for the hashing baselines it exercises the whole-block
  hashing kernel.
* **tree == linear scan** — exact (unbudgeted) tree search, depth-first
  and best-first, must return the true top-k distances, compared against
  a brute-force scan (values up to BLAS ulp differences, multiset-wise so
  distance ties cannot flip the comparison).  This is the oracle.
* **profiling is free of side effects** — ``profile=True`` changes no
  index, distance or counter.
* **stats sanity** — the work counters must satisfy their structural
  invariants: visits bounded by the tree size, every leaf point accounted
  once as verified or pruned, pooled batch stats equal to the sum of the
  per-query stats.

The example budget is profile-controlled from ``tests/conftest.py``
(``HYPOTHESIS_PROFILE=dev|pr|ci``); runs are derandomized so the tier-1
gate stays deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from repro import (  # noqa: E402
    BallTree,
    BCTree,
    DynamicP2HIndex,
    KDTree,
    LinearScan,
    PartitionedP2HIndex,
    RPTree,
)
from repro.core.best_first import BestFirstSearcher  # noqa: E402
from repro.engine.batch import kernel_dispatch_path  # noqa: E402
from repro.core.distances import augment_points, normalize_query  # noqa: E402
from repro.hashing import (  # noqa: E402
    AngularHyperplaneHash,
    FHIndex,
    MultilinearHyperplaneHash,
    NHIndex,
)

COUNTER_FIELDS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
    "buckets_probed",
)

TREE_FAMILIES = {
    "ball": lambda leaf_size: BallTree(leaf_size=leaf_size, random_state=3),
    "bc": lambda leaf_size: BCTree(leaf_size=leaf_size, random_state=3),
    "bc_wo_ball": lambda leaf_size: BCTree(
        leaf_size=leaf_size, random_state=3, use_ball_bound=False
    ),
    "bc_wo_cone": lambda leaf_size: BCTree(
        leaf_size=leaf_size, random_state=3, use_cone_bound=False
    ),
    "bc_two_ip": lambda leaf_size: BCTree(
        leaf_size=leaf_size, random_state=3, collaborative_ip=False
    ),
    "bc_seq": lambda leaf_size: BCTree(
        leaf_size=leaf_size, random_state=3, scan_mode="sequential"
    ),
    "kd": lambda leaf_size: KDTree(leaf_size=leaf_size),
    "rp": lambda leaf_size: RPTree(leaf_size=leaf_size, random_state=3),
}

# Candidate budgets for the budgeted-parity properties: fractions spanning
# "one leaf" to "everything", and absolute counts from 1 (exhaustion inside
# the very first leaf) past n (budget larger than the data set, so the
# budgeted path must degenerate to exact search).  Small counts against
# leaf sizes up to 24 exercise mid-leaf exhaustion — the descent scans
# the whole crossing leaf and only then stops, in a batch as alone.
budget_options = st.one_of(
    st.fixed_dictionaries(
        {"candidate_fraction": st.floats(min_value=0.001, max_value=1.0)}
    ),
    st.fixed_dictionaries(
        {"max_candidates": st.integers(min_value=1, max_value=150)}
    ),
)

# The paper's two hashing baselines and the four related-work schemes,
# each small enough to fit per example.
HASH_FAMILIES = {
    "nh": lambda: NHIndex(num_tables=4, sample_dim=8, random_state=5),
    "fh": lambda: FHIndex(
        num_tables=4, num_partitions=2, sample_dim=8, random_state=5
    ),
    "bh": lambda: MultilinearHyperplaneHash(
        "bh", num_tables=4, bits_per_table=3, random_state=5
    ),
    "mh": lambda: MultilinearHyperplaneHash(
        "mh", order=2, num_tables=4, bits_per_table=3, random_state=5
    ),
    "ah": lambda: AngularHyperplaneHash(
        "ah", num_tables=4, bits_per_table=3, random_state=5
    ),
    "eh": lambda: AngularHyperplaneHash(
        "eh", num_tables=4, bits_per_table=3, random_state=5
    ),
}

# Quantized coordinates (16-bit float values) make exact duplicates and
# distance ties likely, which is precisely what stresses the collectors'
# tie handling and the kernel's bit-identity claim.
coords = st.floats(-8.0, 8.0, width=16)


@st.composite
def problems(draw):
    """A random P2HNNS problem: points, queries, k, and a leaf size."""
    n = draw(st.integers(min_value=4, max_value=60))
    dim = draw(st.integers(min_value=2, max_value=6))
    points = draw(
        hnp.arrays(np.float64, (n, dim), elements=coords)
    )
    num_queries = draw(st.integers(min_value=1, max_value=5))
    queries = draw(
        hnp.arrays(
            np.float64,
            (num_queries, dim + 1),
            elements=st.floats(-4.0, 4.0, width=16),
        )
    )
    # Hyperplanes with a (numerically) zero normal are rejected by
    # normalize_query; nudge instead of assume() so examples survive.
    for row in queries:
        if float(np.linalg.norm(row[:-1])) <= 0.0:
            row[0] = 1.0
    k = draw(st.integers(min_value=1, max_value=12))
    leaf_size = draw(st.integers(min_value=2, max_value=24))
    return points, queries, k, leaf_size


def _assert_bit_identical_with_stats(batch, sequential):
    assert len(batch) == len(sequential)
    for got, expected in zip(batch, sequential):
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.distances, expected.distances)
        for field in COUNTER_FIELDS:
            assert getattr(got.stats, field) == getattr(expected.stats, field)


class TestTreeProperties:
    @given(data=problems(), family=st.sampled_from(sorted(TREE_FAMILIES)))
    def test_batch_equals_sequential(self, data, family):
        """Block-kernel batches are bit-identical to per-query search."""
        points, queries, k, leaf_size = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        sequential = [index.search(q, k=k) for q in queries]
        batch = index.batch_search(queries, k=k)
        _assert_bit_identical_with_stats(batch, sequential)

    @given(
        data=problems(),
        family=st.sampled_from(sorted(TREE_FAMILIES)),
        budget=budget_options,
    )
    def test_budgeted_batch_equals_sequential(self, data, family, budget):
        """Budgeted batches dispatch through the block kernel and stay
        bit-identical — results AND counters — to per-query budgeted
        search, for every tree family, in both node-value strategies
        (eager GEMV above ``budget >= num_nodes``, lazy ddots below)."""
        points, queries, k, leaf_size = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        assert kernel_dispatch_path(index, **budget) == "kernel"
        sequential = [index.search(q, k=k, **budget) for q in queries]
        batch = index.batch_search(queries, k=k, **budget)
        _assert_bit_identical_with_stats(batch, sequential)

    @given(data=problems(), family=st.sampled_from(sorted(TREE_FAMILIES)))
    def test_tree_equals_linear_scan(self, data, family):
        """Exact tree search — and best-first search on the ball trees —
        returns the true top-k distance multiset."""
        points, queries, k, leaf_size = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        searches = [index.search]
        if isinstance(index, BallTree):
            searches.append(BestFirstSearcher(index).search)
        augmented = augment_points(points)
        for query in queries:
            q = normalize_query(np.asarray(query, dtype=np.float64))
            brute = np.sort(np.abs(augmented @ q))[: min(k, points.shape[0])]
            for search in searches:
                result = search(query, k=k)
                assert len(result) == brute.shape[0]
                np.testing.assert_allclose(
                    np.asarray(result.distances), brute,
                    rtol=1e-9, atol=1e-12,
                )

    @given(
        data=problems(),
        # KD-Tree keeps no stage timers and rejects ``profile``.
        family=st.sampled_from(sorted(set(TREE_FAMILIES) - {"kd"})),
    )
    def test_profile_changes_nothing(self, data, family):
        """``profile=True`` only adds stage timers: indices, distances and
        every counter equal the unprofiled run, through ``search`` and
        ``batch_search``, and batches carry both stage keys."""
        points, queries, k, leaf_size = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        plain = [index.search(q, k=k) for q in queries]
        _assert_bit_identical_with_stats(
            [index.search(q, k=k, profile=True) for q in queries], plain
        )
        batch = index.batch_search(queries, k=k, profile=True)
        _assert_bit_identical_with_stats(batch, plain)
        stages = {"lower_bounds", "verification"}
        assert stages <= set(batch.stats.stage_seconds)
        for result in batch:
            assert stages <= set(result.stats.stage_seconds)

    @given(data=problems(), family=st.sampled_from(sorted(TREE_FAMILIES)))
    def test_stats_counters_sane(self, data, family):
        """Structural invariants of the per-query work counters."""
        points, queries, k, leaf_size = data
        index = TREE_FAMILIES[family](leaf_size).fit(points)
        n = points.shape[0]
        num_nodes = index.num_nodes
        batch = index.batch_search(queries, k=k)
        pooled = batch.stats
        for result in batch:
            stats = result.stats
            assert 1 <= stats.nodes_visited
            assert stats.leaves_scanned >= 1
            assert stats.candidates_verified >= len(result) >= min(k, n)
            # every leaf point is verified or pruned at most once
            assert (
                stats.candidates_verified
                + stats.points_pruned_ball
                + stats.points_pruned_cone
                <= n
            )
            assert stats.buckets_probed == 0
            if isinstance(index, KDTree):
                assert stats.center_inner_products == 0
            else:
                # 1 for the root, then 1 (collaborative) or 2 per expansion
                increment = 2
                if getattr(index, "collaborative_ip", False):
                    increment = 1
                assert (stats.center_inner_products - 1) % increment == 0
                assert stats.center_inner_products >= 1
            # the descent pops every node at most once
            assert stats.nodes_visited <= 2 * num_nodes
        for field in COUNTER_FIELDS:
            assert getattr(pooled, field) == sum(
                getattr(r.stats, field) for r in batch
            )


class TestCompositeIndexProperties:
    @given(data=problems(), num_partitions=st.integers(2, 4))
    def test_partitioned_batch_equals_sequential(self, data, num_partitions):
        points, queries, k, leaf_size = data
        assume(points.shape[0] >= num_partitions)
        index = PartitionedP2HIndex(
            num_partitions=num_partitions,
            index_factory=lambda: BCTree(leaf_size=leaf_size, random_state=3),
            random_state=7,
        ).fit(points)
        sequential = [index.search(q, k=k) for q in queries]
        batch = index.batch_search(queries, k=k)
        _assert_bit_identical_with_stats(batch, sequential)

    @given(data=problems(), num_partitions=st.integers(2, 4),
           budget=budget_options)
    def test_partitioned_budgeted_batch_equals_sequential(
        self, data, num_partitions, budget
    ):
        """Per-shard budgets ride the kernel into every shard, and the
        vectorized batch merge must still equal the per-query merge even
        when budget-starved rows come back shorter than k."""
        points, queries, k, leaf_size = data
        assume(points.shape[0] >= num_partitions)
        index = PartitionedP2HIndex(
            num_partitions=num_partitions,
            index_factory=lambda: BCTree(leaf_size=leaf_size, random_state=3),
            random_state=7,
        ).fit(points)
        sequential = [index.search(q, k=k, **budget) for q in queries]
        batch = index.batch_search(queries, k=k, **budget)
        _assert_bit_identical_with_stats(batch, sequential)

    @given(
        data=problems(),
        cut=st.floats(0.0, 1.0),
        first_deletes=st.floats(0.0, 0.8),
        later_deletes=st.floats(0.0, 0.5),
        auto_rebuild=st.booleans(),
        rebuild_first=st.booleans(),
        threshold=st.sampled_from([0.25, 4.0]),
        n_jobs=st.sampled_from([1, 2]),
        budget=st.one_of(st.just({}), budget_options),
    )
    def test_dynamic_batch_equals_sequential(
        self, data, cut, first_deletes, later_deletes, auto_rebuild,
        rebuild_first, threshold, n_jobs, budget,
    ):
        """The dynamic block kernel equals per-query search in every state
        an insert/delete history reaches: two insert waves put rows in the
        buffer beside the static index's tombstones (auto-rebuild off, or
        a threshold no history here crosses), and the later deletes hit
        both parts — for both pool sizes, with and without a budget."""
        points, queries, k, leaf_size = data
        index = DynamicP2HIndex(
            index_factory=lambda: BCTree(leaf_size=leaf_size, random_state=3),
            rebuild_threshold=threshold,
            auto_rebuild=auto_rebuild,
        )
        split = max(1, int(cut * len(points)))
        ids = index.insert(points[:split])
        if rebuild_first:
            index.rebuild()
        index.delete(ids[: int(first_deletes * len(ids))])
        if split < len(points):
            ids = np.concatenate([ids, index.insert(points[split:])])
        index.delete(ids[::-1][: int(later_deletes * len(ids))])
        assume(index.num_points > 0)
        sequential = [index.search(q, k=k, **budget) for q in queries]
        batch = index.batch_search(queries, k=k, n_jobs=n_jobs, **budget)
        _assert_bit_identical_with_stats(batch, sequential)

    @given(data=problems())
    def test_linear_scan_batch_equals_sequential(self, data):
        points, queries, k, _ = data
        index = LinearScan().fit(points)
        sequential = [index.search(q, k=k) for q in queries]
        batch = index.batch_search(queries, k=k)
        _assert_bit_identical_with_stats(batch, sequential)


class TestHashingProperties:
    @given(data=problems(), family=st.sampled_from(sorted(HASH_FAMILIES)))
    def test_batch_equals_sequential(self, data, family):
        """The hashing kernels stay bit-identical on degenerate data too."""
        points, queries, k, _ = data
        try:
            index = HASH_FAMILIES[family]().fit(points)
        except ValueError:
            # Degenerate fits (single point, equal norms) raise by design.
            assume(False)
        sequential = [index.search(q, k=k) for q in queries]
        batch = index.batch_search(queries, k=k)
        _assert_bit_identical_with_stats(batch, sequential)
