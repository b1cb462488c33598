"""Batched query execution: one call, many queries, optional worker pool.

:func:`execute_batch` is the single batched path every index's
``batch_search`` routes through.  It validates the query matrix once,
dispatches it one of two ways, and aggregates the per-query results into a
:class:`BatchSearchResult` (a sequence of per-query
:class:`~repro.core.results.SearchResult` plus pooled
:class:`~repro.core.results.SearchStats` and wall/CPU timing).

* **Kernel dispatch.**  An index exposing a vectorized ``_batch_kernel`` —
  a method answering a whole query block in one call — gets one contiguous
  chunk of the query matrix per worker, and its sequential ``search`` runs
  the same kernel on a one-row block.  Two kernel families exist: the tree
  indexes (Ball-Tree, BC-Tree, RP-Tree, KD-Tree) push query blocks down the
  tree together through the block traversal kernel
  (:mod:`repro.engine.block`), and the hashing baselines
  (:mod:`repro.hashing.base`) probe and verify whole blocks with batched
  table lookups.  Every option these indexes accept goes to the kernel —
  candidate budgets, ``profile=True``, BC-Tree's sequential scan, and
  ``exact=False`` (the fast tier, :mod:`repro.engine.fast`) included — and
  an unknown option raises ``TypeError`` from it, as from ``search``.
* **Per-query dispatch.**  Every other index (the linear scan, MIPS, the
  dynamic composite) and any caller-supplied ``search_fn`` (such as
  :class:`~repro.core.best_first.BestFirstSearcher`'s) pool per-query
  ``search`` calls, scheduled hardest-first from one ``centers[:m] @ Q.T``
  seed matmul on tree indexes.

:func:`kernel_dispatch_path` reports which path (and, for ``exact=False``
on a tree index, the fast GEMM kernel) a configuration takes.

Determinism contract
--------------------
``batch_search`` returns **bit-identical** indices and distances to calling
``search`` once per query, for every index and every ``n_jobs`` — including
under ``candidate_fraction`` / ``max_candidates`` budgets.  For per-query
dispatch this holds because each worker runs exactly ``search``; for
kernel dispatch it holds because ``search`` runs the same kernel with a
block of one query, and every kernel step is per-row independent.  Worker
purity — a dispatched task callable never mutates ``self`` or globals
(pool ``initializer=`` excepted: planting per-process state is its job) —
is enforced statically by ``repro check`` rule REP301.

The batch-level seed matmul deliberately does *not* feed inner products
into traversal: BLAS GEMM results are not bit-reproducible against the
GEMV/dot kernels the traversal uses (measured on this build of OpenBLAS:
``(C @ Q.T)[:, j]`` differs from ``C @ Q[j]`` in the last ulp, and is not
even independent of the batch size).  An ulp-perturbed inner product can
flip a branch-preference comparison or a bound-vs-threshold test, which
under a candidate budget changes *which* candidates are verified —
silently breaking the parity guarantee.  The seed matmul is therefore used
where it cannot perturb results: estimating per-query difficulty (how weak
the upper-level bounds are) so that hard queries are spread evenly across
workers.  The batch kernels obey the same rule: any quantity that feeds
candidate selection (query-table projections, hash codes) is computed with
the per-query GEMV kernel, never a whole-block GEMM.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.results import SearchResult, SearchStats
from repro.utils.validation import check_positive_int, check_query_matrix

EXECUTORS = ("thread", "process")

#: Number of upper-level nodes whose inner products seed the batch schedule.
SEED_NODES = 64


class BatchSearchResult(Sequence):
    """Aggregated outcome of one batched search.

    Behaves as a read-only sequence of per-query
    :class:`~repro.core.results.SearchResult` (so existing callers that
    iterated the old ``List[SearchResult]`` keep working), and additionally
    carries pooled work counters and batch-level timing.

    Attributes
    ----------
    results:
        Per-query results, in the order of the input query matrix.
    stats:
        Pooled work counters (the sum over all queries); its
        ``elapsed_seconds`` is the summed per-query wall time as measured
        inside the workers.
    wall_seconds:
        End-to-end wall-clock time of the batch call.
    cpu_seconds:
        CPU time consumed by the calling process during the batch (with the
        process executor, children's CPU time is not included).
    n_jobs:
        Effective worker-pool size the batch ran with (the requested
        ``n_jobs`` capped at the machine's CPU count).
    """

    def __init__(
        self,
        results: List[SearchResult],
        stats: SearchStats,
        *,
        wall_seconds: float,
        cpu_seconds: float,
        n_jobs: int = 1,
    ) -> None:
        self.results = list(results)
        self.stats = stats
        self.wall_seconds = float(wall_seconds)
        self.cpu_seconds = float(cpu_seconds)
        self.n_jobs = int(n_jobs)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, item):
        return self.results[item]

    @property
    def queries_per_second(self) -> float:
        """Batch throughput (0.0 for an empty or instantaneous batch)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.wall_seconds

    def indices_matrix(self, fill: int = -1) -> np.ndarray:
        """Per-query result indices stacked into a ``(q, k)`` matrix.

        Rows with fewer than ``k`` results (tight budgets) are padded with
        ``fill``.
        """
        width = max((len(r) for r in self.results), default=0)
        out = np.full((len(self.results), width), fill, dtype=np.int64)
        for row, result in enumerate(self.results):
            out[row, : len(result)] = result.indices
        return out

    def distances_matrix(self, fill: float = np.inf) -> np.ndarray:
        """Per-query distances stacked into a ``(q, k)`` matrix."""
        width = max((len(r) for r in self.results), default=0)
        out = np.full((len(self.results), width), fill, dtype=np.float64)
        for row, result in enumerate(self.results):
            out[row, : len(result)] = result.distances
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BatchSearchResult(queries={len(self.results)}, "
            f"n_jobs={self.n_jobs}, wall={self.wall_seconds:.4f}s, "
            f"qps={self.queries_per_second:.1f})"
        )


def pool_results(
    results: List[SearchResult],
    *,
    wall_seconds: float,
    cpu_seconds: float,
    n_jobs: int = 1,
) -> BatchSearchResult:
    """Merge per-query results into a :class:`BatchSearchResult`."""
    pooled = SearchStats()
    for result in results:
        pooled.merge(result.stats)
    return BatchSearchResult(
        results,
        pooled,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        n_jobs=n_jobs,
    )


def kernel_dispatch_path(index, **search_kwargs) -> str:
    """Which execution path :func:`execute_batch` will take.

    Returns ``"per-query"`` when the index has no vectorized batch kernel
    (scheduled per-query dispatch), ``"fast-gemm"`` when the options
    select the approximate fast-mode kernel (``exact=False`` on a tree
    index — float32 storage plus cross-query GEMM,
    :mod:`repro.engine.fast`), and ``"kernel"`` for every other
    vectorized batch kernel (the exact block traversal kernel and the
    hashing baselines' block kernels).
    """
    if getattr(index, "_batch_kernel", None) is None:
        return "per-query"
    if (
        not search_kwargs.get("exact", True)
        and getattr(index, "tree", None) is not None
    ):
        return "fast-gemm"
    return "kernel"


def execute_batch(
    index,
    queries: np.ndarray,
    k: int = 1,
    *,
    n_jobs: Optional[int] = None,
    executor: str = "thread",
    search_fn: Optional[Callable[[np.ndarray], SearchResult]] = None,
    pool=None,
    **search_kwargs,
) -> BatchSearchResult:
    """Run ``index.search`` for every row of ``queries``.

    Parameters
    ----------
    index:
        Any object exposing ``search(query, k=..., **kwargs)`` — every
        index in the library qualifies.
    queries:
        Query matrix of shape ``(q, d)`` (a single vector is promoted).
    k:
        Top-k size forwarded to every search.
    n_jobs:
        Worker-pool size; ``None`` or 1 runs inline without a pool.  The
        effective pool is capped at the machine's CPU count — search is
        CPU-bound, so surplus workers only add GIL and scheduler overhead
        (results are identical either way).
    executor:
        ``"thread"`` (default) or ``"process"``.  The process executor
        forks workers that inherit the fitted index and is the right
        choice when search is interpreter-bound and several cores are
        available; it requires ``search_fn`` to be None.
    search_fn:
        Optional replacement for ``index.search`` (e.g. a best-first
        searcher or MIPS mode); called as ``search_fn(query)`` and expected
        to honor ``k``/``search_kwargs`` itself via closure.  Supplying it
        disables the vectorized-kernel dispatch.
    pool:
        Optional already-running executor to dispatch on instead of
        spawning (and tearing down) a fresh one per call — the mechanism
        behind :class:`repro.api.Searcher`.  A thread pool is used as-is;
        a process pool must have been created with
        ``initializer=_process_worker_init`` and ``initargs=(index,)`` so
        every worker holds the fitted index once.  Either way ``k`` and
        the options ride along with each task, so results and stats are
        bit-identical to the per-call pool path.
    search_kwargs:
        Extra options forwarded to every ``index.search`` call (or to every
        kernel call when the index exposes ``_batch_kernel``).
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    n_jobs = 1 if n_jobs is None else check_positive_int(n_jobs, name="n_jobs")
    workers = min(n_jobs, os.cpu_count() or 1)
    kernel = None if search_fn is not None else getattr(
        index, "_batch_kernel", None
    )
    # The finiteness scan runs once here for the kernel path (kernels trust
    # the engine's validation); per-query dispatch re-validates every row
    # inside index.search, so scanning the matrix as well would be wasted.
    matrix = check_query_matrix(queries, check_finite=kernel is not None)
    num_queries = matrix.shape[0]
    if kernel is not None:
        return _execute_kernel_batch(
            index, kernel, matrix, k, workers, executor, search_kwargs,
            pool=pool,
        )
    if search_fn is None:
        def search_fn(query):
            return index.search(query, k=k, **search_kwargs)
    elif executor == "process":
        raise ValueError("the process executor does not support search_fn")

    wall_tic = time.perf_counter()
    cpu_tic = time.process_time()
    if num_queries == 0:
        results: List[SearchResult] = []
    elif workers == 1 or num_queries == 1:
        results = [search_fn(query) for query in matrix]
    else:
        _warm_engine(index)
        order = _difficulty_order(index, matrix)
        # Round-robin over the difficulty ranking so every worker gets an
        # even mix of hard and easy queries.
        chunks = [order[offset::workers] for offset in range(workers)]
        chunks = [chunk for chunk in chunks if chunk.size]
        with _worker_pool(pool, executor, len(chunks), index) as running:
            if executor == "thread":
                def run_chunk(chunk):
                    return [
                        (int(pos), search_fn(matrix[pos])) for pos in chunk
                    ]

                pair_lists = list(running.map(run_chunk, chunks))
            else:
                pair_lists = list(running.map(
                    _process_worker_run_opts,
                    [
                        (matrix[chunk], chunk.tolist(), k, search_kwargs)
                        for chunk in chunks
                    ],
                ))
        results = [None] * num_queries
        for pairs in pair_lists:
            for pos, result in pairs:
                results[pos] = result
    wall = time.perf_counter() - wall_tic
    cpu = time.process_time() - cpu_tic
    return pool_results(
        results, wall_seconds=wall, cpu_seconds=cpu, n_jobs=workers
    )


def _execute_kernel_batch(
    index,
    kernel: Callable,
    matrix: np.ndarray,
    k: int,
    workers: int,
    executor: str,
    search_kwargs: dict,
    *,
    pool=None,
) -> BatchSearchResult:
    """Dispatch a vectorized ``_batch_kernel`` over contiguous query chunks.

    Each worker answers one contiguous slice of the query matrix with a
    single kernel call; the kernel's per-row independence guarantees the
    reassembled results equal a single whole-batch call (and sequential
    ``search``, which runs the same kernel on blocks of one).  When
    ``pool`` is given, the chunks are dispatched on that long-lived
    executor instead of a per-call one (see :func:`execute_batch`).
    """
    num_queries = matrix.shape[0]
    wall_tic = time.perf_counter()
    cpu_tic = time.process_time()
    if num_queries == 0:
        results: List[SearchResult] = []
    elif workers == 1 or num_queries == 1:
        results = kernel(matrix, k, **search_kwargs)
    else:
        # Same guard as the per-query path: racing worker threads through a
        # fresh index's first engine build would construct duplicates.
        _warm_engine(index)
        chunks = [
            chunk for chunk in np.array_split(matrix, workers) if chunk.shape[0]
        ]
        with _worker_pool(pool, executor, len(chunks), index) as running:
            if executor == "thread":
                def run_chunk(chunk):
                    return kernel(chunk, k, **search_kwargs)

                parts = list(running.map(run_chunk, chunks))
            else:
                parts = list(running.map(
                    _process_worker_run_kernel_opts,
                    [(chunk, k, search_kwargs) for chunk in chunks],
                ))
        results = [result for part in parts for result in part]
    wall = time.perf_counter() - wall_tic
    cpu = time.process_time() - cpu_tic
    return pool_results(
        results, wall_seconds=wall, cpu_seconds=cpu, n_jobs=workers
    )


@contextlib.contextmanager
def _worker_pool(pool, executor: str, workers: int, index):
    """The caller's long-lived ``pool``, or a fresh per-call executor.

    A fresh process pool plants the fitted index in every worker once
    (:func:`_process_worker_init`), exactly like a
    :class:`repro.api.Searcher` session pool, so both run the same task
    runners with ``k`` and the options carried by each task.
    """
    if pool is not None:
        yield pool
        return
    if executor == "thread":
        owned = ThreadPoolExecutor(max_workers=workers)
    else:
        owned = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_process_worker_init,
            initargs=(index,),
        )
    with owned:
        yield owned


def _warm_engine(index) -> None:
    """Build the index's lazy traversal engine before spawning workers.

    The engine cache is populated without synchronization; racing worker
    threads through the first build would construct (and briefly hold) up
    to ``n_jobs`` duplicate engines, each with its own copy of the
    leaf-ordered point matrix.  Building it once up front keeps the first
    parallel batch on a fresh index cheap.  Results are unaffected either
    way.
    """
    builder = getattr(index, "_engine", None)
    if builder is None:
        return
    try:
        builder()
    except NotImplementedError:
        # Indexes without a traversal engine (linear scan, hashing).
        pass


def _upper_level_nodes(tree, limit: int) -> np.ndarray:
    """Ids of the root and upper tree levels (breadth-first, up to ``limit``).

    Node ids are assigned in depth-first pre-order at build time, so a
    plain id prefix would cover the leftmost subtree rather than the top of
    the tree; a breadth-first walk yields the actual upper levels.
    """
    left = tree.left_child
    right = tree.right_child
    nodes = [0]
    cursor = 0
    while cursor < len(nodes) and len(nodes) < limit:
        node = nodes[cursor]
        cursor += 1
        child = int(left[node])
        if child >= 0:
            nodes.append(child)
            nodes.append(int(right[node]))
    return np.asarray(nodes[:limit], dtype=np.int64)


def _difficulty_order(index, matrix: np.ndarray) -> np.ndarray:
    """Schedule queries hardest-first from one upper-level seed matmul.

    For tree indexes, ``centers[levels] @ Q.T`` — a single GEMM over the
    whole batch — yields every query's inner products with the root and
    upper levels of the tree.  Queries whose node bounds are weakest
    (smallest) will prune least and take longest, so they are dispatched
    first.  The estimates never feed back into traversal (see the module
    docstring).
    """
    num_queries = matrix.shape[0]
    identity = np.arange(num_queries, dtype=np.int64)
    tree = getattr(index, "tree", None)
    centers = getattr(tree, "centers", None)
    radii = getattr(tree, "radii", None)
    if centers is None or radii is None or centers.shape[1] != matrix.shape[1]:
        return identity
    levels = _upper_level_nodes(tree, min(int(centers.shape[0]), SEED_NODES))
    seed = matrix @ centers[levels].T  # the one batch-level matmul
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0.0] = 1.0
    estimates = np.maximum(
        np.abs(seed) / norms[:, None] - radii[levels][None, :], 0.0
    ).mean(axis=1)
    return np.argsort(estimates, kind="stable").astype(np.int64)


# ------------------------------------------------------- process-pool plumbing

_WORKER_INDEX = None


def _process_worker_init(index) -> None:
    """Pool initializer: hold the fitted index once per worker process."""
    global _WORKER_INDEX
    _WORKER_INDEX = index


def _process_worker_run_opts(payload):
    """Per-query chunk runner (``k`` and the search options per task)."""
    rows, positions, k, search_kwargs = payload
    return [
        (pos, _WORKER_INDEX.search(row, k=k, **search_kwargs))
        for row, pos in zip(rows, positions)
    ]


def _process_worker_run_kernel_opts(payload):
    """Kernel chunk runner (``k`` and the search options per task)."""
    rows, k, search_kwargs = payload
    return _WORKER_INDEX._batch_kernel(rows, k, **search_kwargs)
