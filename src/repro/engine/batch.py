"""Batched query execution: one call, many queries, optional worker pool.

:func:`execute_batch` is the single batched path every index's
``batch_search`` routes through.  It validates the query matrix once,
splits it into contiguous chunks, answers each chunk with one call to the
index's ``_batch_kernel(queries, k, **options)`` — inline, on a thread
pool or on a process pool — and pools the per-query results into a
:class:`BatchSearchResult` (per-query
:class:`~repro.core.results.SearchResult` plus pooled
:class:`~repro.core.results.SearchStats` and wall/CPU timing).

Every index exposes that kernel, and its ``search`` runs the same kernel
on a one-row block.  The tree indexes run one descent per row through the
block traversal kernel (:mod:`repro.engine.block`; best-first for
:class:`~repro.core.best_first.BestFirstSearcher`), the hashing baselines
probe and verify sub-blocks (:mod:`repro.hashing.base`), the linear scan
and MIPS answer row by row, and the composites run their sub-indexes'
kernels on the block (the dynamic index adds its insert buffer, the
partitioned index merges its shards).  Every option goes to the kernel —
budgets, ``profile=True``, BC-Tree's sequential scan and ``exact=False``
(the fast tier, :mod:`repro.engine.fast`) included — and an unknown one
raises ``TypeError`` there, as from ``search``.  :func:`kernel_dispatch_path`
says whether a configuration takes the exact kernel or the fast GEMM one.

Determinism contract
--------------------
``batch_search`` returns **bit-identical** indices and distances to calling
``search`` once per query, for every index and every ``n_jobs`` — including
under ``candidate_fraction`` / ``max_candidates`` budgets — because
``search`` runs the same kernel with a block of one query and every exact
kernel step is per-row independent.  Worker purity — a dispatched task
callable never mutates ``self`` or globals (pool ``initializer=``
excepted: planting per-process state is its job) — is enforced statically
by ``repro check`` rule REP301.

No batch-level GEMM feeds an exact kernel: BLAS GEMM results are not
bit-reproducible against the GEMV/dot kernels a one-row search uses (on
OpenBLAS, ``(C @ Q.T)[:, j]`` differs from ``C @ Q[j]`` in the last ulp,
and depends on the batch size).  An ulp-perturbed inner product can flip a
branch-preference comparison or a bound-vs-threshold test, which under a
candidate budget changes *which* candidates are verified.  So every
quantity that feeds candidate selection or a reported distance (node inner
products, leaf and buffer distances, query-table projections, hash codes)
comes from the per-query GEMV kernel.  Only the ``exact=False`` fast tier
gives that up, on request.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.core.results import SearchResult, SearchStats
from repro.utils.validation import check_positive_int, check_query_matrix

EXECUTORS = ("thread", "process")


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
    """Which kernel :func:`execute_batch` will run for these options.

    Returns ``"fast-gemm"`` when the options select the approximate
    fast-mode kernel (``exact=False`` on a tree index — float32 storage,
    GEMV sweeps per row up to 64 rows and GEMMs above,
    :mod:`repro.engine.fast`), and ``"kernel"``
    for every other configuration (the exact block traversal kernel, the
    hashing baselines' block kernels and the per-row default kernel).
    A composite answers with the kernels of the indexes its own kernel
    calls (``_kernel_indexes``: the dynamic index's static index, the
    partitioned index's shards), so it is judged by those.  Raises
    ``TypeError`` for an object without a batch kernel, as
    :func:`execute_batch` does, and for ``exact=False`` on an index
    without a fast tier, as its ``batch_search`` does.
    """
    _batch_kernel_of(index)
    if search_kwargs.get("exact", True):
        return "kernel"
    kernel_indexes = getattr(index, "_kernel_indexes", None)
    if kernel_indexes is not None:
        paths = {
            kernel_dispatch_path(sub_index, **search_kwargs)
            for sub_index in kernel_indexes()
        }
        return "fast-gemm" if "fast-gemm" in paths else "kernel"
    # Every tree family hands exact=False to the fast tier; a call-time
    # import, since repro.core.index_base imports this module.
    from repro.core.index_base import LeafStoredPointsMixin

    if isinstance(index, LeafStoredPointsMixin):
        return "fast-gemm"
    raise TypeError(
        f"{type(index).__name__} has no fast tier: exact=False is not an "
        "option of its batch_search"
    )


def _batch_kernel_of(index):
    """The index's ``_batch_kernel``, or a ``TypeError`` saying how to get one."""
    kernel = getattr(index, "_batch_kernel", None)
    if kernel is None:
        raise TypeError(
            f"{type(index).__name__} has no _batch_kernel(queries, k, "
            "**options), the one entry point batched search calls; "
            "subclass repro.core.index_base.P2HIndex, whose default kernel "
            "answers each row with the family's _search_one"
        )
    return kernel


def execute_batch(
    index,
    queries: np.ndarray,
    k: int = 1,
    *,
    n_jobs: Optional[int] = None,
    executor: str = "thread",
    pool=None,
    **search_kwargs,
) -> BatchSearchResult:
    """Answer every row of ``queries`` with ``index._batch_kernel``.

    Parameters
    ----------
    index:
        Any object exposing ``_batch_kernel(queries, k, **options)`` —
        every index in the library qualifies (see the module docstring).
        Anything else raises ``TypeError``.
    queries:
        Query matrix of shape ``(q, d)`` (a single vector is promoted).
    k:
        Top-k size forwarded to every kernel call.
    n_jobs:
        Worker-pool size; ``None`` or 1 runs inline without a pool.  The
        effective pool is capped at the machine's CPU count — search is
        CPU-bound, so surplus workers only add GIL and scheduler overhead
        (results are identical either way).  Each worker answers one
        contiguous chunk of the query matrix with one kernel call.
    executor:
        ``"thread"`` (default) or ``"process"``.  The process executor
        forks workers that inherit the fitted index and is the right
        choice when search is interpreter-bound and several cores are
        available.
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
        Extra options forwarded to every kernel call.
    """
    kernel = _batch_kernel_of(index)
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    n_jobs = 1 if n_jobs is None else check_positive_int(n_jobs, name="n_jobs")
    workers = 1 if n_jobs == 1 else min(n_jobs, os.cpu_count() or 1)
    # The one validation pass: kernels trust the block they are given.
    matrix = check_query_matrix(queries)
    num_queries = matrix.shape[0]
    wall_tic = time.perf_counter()
    cpu_tic = time.process_time()
    if num_queries == 0:
        results: List[SearchResult] = []
    elif workers == 1 or num_queries == 1:
        results = kernel(matrix, k, **search_kwargs)
    else:
        # Racing worker threads through a fresh index's first engine build
        # would construct duplicates.
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
    to ``n_jobs`` duplicate engines, each with its own per-node lists and
    leaf structures (the point matrix itself is the store's array, shared).
    Building it once up front keeps the first parallel batch on a fresh
    index cheap.  Only indexes that have ``_engine`` are warmed; a
    composite's sub-index engines are built by the first worker that needs
    them.  Results are unaffected either way.
    """
    builder = getattr(index, "_engine", None)
    if builder is None:
        return
    try:
        builder()
    except NotImplementedError:
        # Indexes without a traversal engine (linear scan, hashing).
        pass


# ------------------------------------------------------- process-pool plumbing

_WORKER_INDEX = None


def _process_worker_init(index) -> None:
    """Pool initializer: hold the fitted index once per worker process."""
    global _WORKER_INDEX
    _WORKER_INDEX = index


def _process_worker_run_kernel_opts(payload):
    """Kernel chunk runner (``k`` and the search options per task)."""
    rows, k, search_kwargs = payload
    return _WORKER_INDEX._batch_kernel(rows, k, **search_kwargs)
