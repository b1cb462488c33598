"""API-parity suite: the :class:`repro.api.Searcher` session vs per-call.

The session's contract is strict: repeated ``batch_search`` / ``stream``
calls on one warm pool must be **bit-identical** — result indices and
distances, per-query work counters, and pooled batch counters — to the
per-call ``index.batch_search`` path, for every index family, both
executors, and under candidate budgets.

The machine's real CPU count is irrelevant to the contract, so the tests
pin ``os.cpu_count`` to 4: worker pools are then genuinely spawned (and
reused) even on single-core CI runners, exercising the persistent-pool
dispatch paths rather than collapsing to the inline path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import SearchOptions, Searcher, build_index

RNG = np.random.default_rng(23)
POINTS = RNG.normal(size=(320, 10))
QUERIES = RNG.normal(size=(9, 11))
K = 5

#: (family id, build kwargs, search overrides) — chosen to cover the tree
#: block kernel, its sequential-scan mode, the budgeted
#: kernel, the default per-row kernel (linear scan), the hashing kernel,
#: and both composites' kernels.
CASES = [
    ("bc_tree", {"leaf_size": 32, "random_state": 0}, {}),
    ("bc_tree_seq", {"leaf_size": 32, "random_state": 0,
                     "scan_mode": "sequential"}, {}),
    ("ball_tree_budget", {"leaf_size": 32, "random_state": 0},
     {"candidate_fraction": 0.25}),
    ("kd_tree", {"leaf_size": 32}, {}),
    ("linear_scan", {}, {}),
    ("nh", {"num_tables": 8, "random_state": 0}, {}),
    ("fh", {"num_tables": 8, "num_partitions": 2, "random_state": 0}, {}),
    ("dynamic", {"random_state": 0}, {}),
    ("partitioned", {"num_partitions": 3, "strategy": "contiguous",
                     "random_state": 0}, {}),
]

_KIND_OF = {
    "bc_tree_seq": "bc_tree",
    "ball_tree_budget": "ball_tree",
}


def _build_fitted(case_id, build_kwargs):
    kind = _KIND_OF.get(case_id, case_id)
    index = build_index(kind, **build_kwargs)
    if kind == "dynamic":
        index.insert(POINTS)
    else:
        index.fit(POINTS)
    return index


def _counters(stats):
    """Work counters only — wall timings are not part of the contract."""
    return {
        key: value
        for key, value in stats.as_dict().items()
        if key != "elapsed_seconds" and not key.startswith("stage_")
    }


def assert_batches_identical(got, expected):
    assert len(got) == len(expected)
    assert got.n_jobs == expected.n_jobs
    for got_row, expected_row in zip(got, expected):
        np.testing.assert_array_equal(got_row.indices, expected_row.indices)
        np.testing.assert_array_equal(
            got_row.distances, expected_row.distances
        )
        assert _counters(got_row.stats) == _counters(expected_row.stats)
    assert _counters(got.stats) == _counters(expected.stats)


@pytest.fixture(autouse=True)
def _four_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize(
    "case_id,build_kwargs,search_overrides",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_session_parity_across_repeated_calls(
    case_id, build_kwargs, search_overrides, executor
):
    """Three warm-pool calls, each bit-identical to the per-call path."""
    index = _build_fitted(case_id, build_kwargs)
    expected = index.batch_search(
        QUERIES, k=K, n_jobs=2, executor=executor, **search_overrides
    )
    options = SearchOptions.from_kwargs(
        k=K, n_jobs=2, executor=executor, **search_overrides
    )
    with Searcher(index, options) as searcher:
        for _ in range(3):
            got = searcher.batch_search(QUERIES)
            assert_batches_identical(got, expected)
        # The pool was created once and stays warm across the calls.
        if executor == "process":
            assert searcher._pool is not None


def test_session_matches_sequential_search():
    """Session results equal per-query ``search`` (the ground contract)."""
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    sequential = [index.search(query, k=K) for query in QUERIES]
    with Searcher(index, SearchOptions(k=K, n_jobs=3)) as searcher:
        got = searcher.batch_search(QUERIES)
    for got_row, expected_row in zip(got, sequential):
        np.testing.assert_array_equal(got_row.indices, expected_row.indices)
        np.testing.assert_array_equal(
            got_row.distances, expected_row.distances
        )
        assert _counters(got_row.stats) == _counters(expected_row.stats)


def test_stream_yields_per_chunk_batches():
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    chunks = [QUERIES[:4], QUERIES[4:7], QUERIES[7:]]
    with Searcher(index, SearchOptions(k=K, n_jobs=2)) as searcher:
        streamed = list(searcher.stream(iter(chunks)))
        assert len(streamed) == len(chunks)
        for chunk, got in zip(chunks, streamed):
            expected = index.batch_search(chunk, k=K, n_jobs=2)
            assert_batches_identical(got, expected)


def test_per_call_overrides_reuse_the_pool():
    index = _build_fitted("ball_tree", {"leaf_size": 32, "random_state": 0})
    with Searcher(
        index, SearchOptions(k=K, n_jobs=2, executor="process")
    ) as searcher:
        exact = searcher.batch_search(QUERIES)
        pool = searcher._pool
        assert pool is not None
        budgeted = searcher.batch_search(
            QUERIES, k=3, max_candidates=40
        )
        assert searcher._pool is pool  # same pool across differing options
    expected_exact = index.batch_search(QUERIES, k=K, n_jobs=2,
                                        executor="process")
    expected_budgeted = index.batch_search(
        QUERIES, k=3, n_jobs=2, executor="process", max_candidates=40
    )
    assert_batches_identical(exact, expected_exact)
    assert_batches_identical(budgeted, expected_budgeted)


def test_per_call_override_can_switch_budget_form():
    """A session on one budget form accepts overrides in the other form."""
    index = _build_fitted("ball_tree", {"leaf_size": 32, "random_state": 0})
    with Searcher(
        index, SearchOptions(k=K, n_jobs=2, candidate_fraction=0.25)
    ) as searcher:
        got = searcher.batch_search(QUERIES, max_candidates=40)
    expected = index.batch_search(QUERIES, k=K, n_jobs=2, max_candidates=40)
    assert_batches_identical(got, expected)


def test_session_fixed_knobs_cannot_be_overridden_per_call():
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    with Searcher(index, SearchOptions(k=K)) as searcher:
        with pytest.raises(ValueError, match="n_jobs is fixed"):
            searcher.batch_search(QUERIES, n_jobs=4)
        with pytest.raises(ValueError, match="executor is fixed"):
            searcher.batch_search(QUERIES, executor="process")


def test_closed_session_raises():
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    searcher = Searcher(index, SearchOptions(k=K, n_jobs=2))
    searcher.batch_search(QUERIES)
    searcher.close()
    assert searcher.closed
    with pytest.raises(RuntimeError, match="closed"):
        searcher.batch_search(QUERIES)
    with pytest.raises(RuntimeError, match="closed"):
        searcher.search(QUERIES[0])
    # The native-batch route (partitioned under a thread session) must
    # honor close() too, even though it never touches the session pool.
    native = _build_fitted(
        "partitioned",
        {"num_partitions": 2, "strategy": "contiguous", "random_state": 0},
    )
    session = Searcher(native, SearchOptions(k=K, n_jobs=2))
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.batch_search(QUERIES)


def test_double_close_raises_descriptively():
    """A second explicit close() is a caller bug and says so."""
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    searcher = Searcher(index, SearchOptions(k=K))
    searcher.close()
    with pytest.raises(RuntimeError, match="already closed"):
        searcher.close()


def test_context_manager_tolerates_explicit_close_inside_block():
    """with-block + explicit close() must not trip the double-close guard."""
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    with Searcher(index, SearchOptions(k=K)) as searcher:
        searcher.batch_search(QUERIES)
        searcher.close()
    assert searcher.closed


def test_stream_on_closed_session_raises_eagerly():
    """stream() fails at the call site, not at the first next()."""
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    searcher = Searcher(index, SearchOptions(k=K))
    searcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        searcher.stream([QUERIES])


def test_stream_checks_each_chunk_after_close():
    """Closing mid-stream surfaces the descriptive error on the next chunk."""
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    searcher = Searcher(index, SearchOptions(k=K))
    stream = searcher.stream([QUERIES, QUERIES])
    first = next(stream)
    assert len(first) == len(QUERIES)
    searcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        next(stream)


def test_batch_only_kwargs_work_under_thread_sessions():
    """MIPS's ``absolute`` is an ordinary kernel option: it works through
    ``batch_search`` and a session on both executors, and every row equals
    ``search_absolute``."""
    mips = build_index("mips", leaf_size=32, random_state=0).fit(POINTS)
    point_queries = np.random.default_rng(5).normal(size=(4, POINTS.shape[1]))
    expected = [mips.search_absolute(q, k=3) for q in point_queries]
    for executor in ("thread", "process"):
        direct = mips.batch_search(
            point_queries, k=3, n_jobs=2, executor=executor, absolute=True
        )
        with Searcher(
            mips, SearchOptions(k=3, n_jobs=2, executor=executor)
        ) as searcher:
            session = searcher.batch_search(point_queries, absolute=True)
        for got in (direct, session):
            assert len(got) == len(expected)
            for got_row, expected_row in zip(got, expected):
                np.testing.assert_array_equal(
                    got_row.indices, expected_row.indices
                )
                np.testing.assert_array_equal(
                    got_row.distances, expected_row.distances
                )
                assert _counters(got_row.stats) == _counters(
                    expected_row.stats
                )


def test_searcher_rejects_non_indexes():
    with pytest.raises(TypeError, match="search"):
        Searcher(object())


def test_searcher_validates_option_overrides():
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    with pytest.raises(ValueError, match="executor"):
        Searcher(index, executor="gevent")
    with pytest.raises(ValueError, match="not both"):
        Searcher(index, candidate_fraction=0.2, max_candidates=4)


def test_process_session_refreshes_pool_after_dynamic_mutation():
    """Regression: a warm process pool must not serve stale dynamic state.

    Workers hold a pickled snapshot of the index; without the
    mutation-version check the session kept answering from the snapshot
    after ``insert``/``delete`` — returning deleted points.
    """
    index = _build_fitted("dynamic", {"random_state": 0})
    with Searcher(
        index, SearchOptions(k=K, n_jobs=2, executor="process")
    ) as searcher:
        before = searcher.batch_search(QUERIES)
        doomed = int(before[0].indices[0])
        index.delete([doomed])
        after = searcher.batch_search(QUERIES)
        expected = index.batch_search(QUERIES, k=K, n_jobs=2,
                                      executor="process")
        assert_batches_identical(after, expected)
        assert doomed not in after[0].indices
        # ...and inserts become visible too.
        index.insert(RNG.normal(size=(5, POINTS.shape[1])))
        refreshed = index.batch_search(QUERIES, k=K, n_jobs=2,
                                       executor="process")
        assert_batches_identical(searcher.batch_search(QUERIES), refreshed)


def test_process_session_refreshes_pool_after_static_refit():
    """Regression: refitting a static index must invalidate the snapshot."""
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    with Searcher(
        index, SearchOptions(k=K, n_jobs=2, executor="process")
    ) as searcher:
        searcher.batch_search(QUERIES)          # pool warms on the old fit
        index.fit(RNG.normal(size=(200, 10)))   # same dim, new data
        expected = index.batch_search(QUERIES, k=K, n_jobs=2,
                                      executor="process")
        assert_batches_identical(searcher.batch_search(QUERIES), expected)


def test_partitioned_thread_session_uses_native_shard_batches():
    """Thread sessions answer the partitioned index through its shard
    kernels and block merge, as ``batch_search`` does."""
    index = _build_fitted(
        "partitioned",
        {"num_partitions": 3, "strategy": "contiguous", "random_state": 0},
    )
    expected = index.batch_search(QUERIES, k=K, n_jobs=2)
    with Searcher(index, SearchOptions(k=K, n_jobs=2)) as searcher:
        got = searcher.batch_search(QUERIES)
        assert_batches_identical(got, expected)


def test_single_query_search_uses_session_defaults():
    index = _build_fitted("bc_tree", {"leaf_size": 32, "random_state": 0})
    expected = index.search(QUERIES[0], k=3, max_candidates=50)
    with Searcher(
        index, SearchOptions(k=3, max_candidates=50)
    ) as searcher:
        got = searcher.search(QUERIES[0])
    np.testing.assert_array_equal(got.indices, expected.indices)
    np.testing.assert_array_equal(got.distances, expected.distances)
