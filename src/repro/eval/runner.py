"""Experiment runner: fit an index, run queries, compute recall and timing.

This is the layer every benchmark script uses.  It deliberately works on
*raw* points and queries (the same artifacts the dataset registry and query
generators produce) and owns ground-truth computation, so a benchmark is a
few lines: load data, generate queries, call :func:`evaluate_index` for each
method/parameter combination, and feed the results to the reporting module.

Query execution goes through the public API layer: the legacy
``n_jobs``/``executor``/``search_kwargs`` arguments are folded into one
centrally-validated :class:`repro.api.SearchOptions` and the batch runs
inside a :class:`repro.api.Searcher` session (callers sweeping many search
settings can pass their own open session to reuse its warm worker pool).
Per-query wall times come from the engine's per-query timers.  The tree
indexes are answered by the block traversal kernel
(:mod:`repro.engine.block`) and the hashing baselines by their vectorized
whole-batch kernel (:mod:`repro.hashing.base`), so sweeps measure
algorithm cost, not Python loop overhead.  Batched results are
bit-identical to sequential search on every path, so recall numbers are
unaffected by the execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.api import SearchOptions, Searcher
from repro.core.index_base import P2HIndex
from repro.core.results import SearchResult
from repro.eval.ground_truth import exact_ground_truth
from repro.eval.metrics import average_recall, indexing_report, summarize_query_stats


@dataclass
class QueryEvaluation:
    """Recall and timing for one query."""

    recall: float
    query_seconds: float
    result: SearchResult


@dataclass
class EvaluationResult:
    """Outcome of evaluating one index configuration on one workload."""

    method: str
    dataset: str
    k: int
    search_kwargs: Dict = field(default_factory=dict)
    indexing_seconds: float = 0.0
    index_size_bytes: int = 0
    per_query: List[QueryEvaluation] = field(default_factory=list)

    @property
    def recall(self) -> float:
        """Mean recall over the workload's queries."""
        if not self.per_query:
            return 0.0
        return float(np.mean([q.recall for q in self.per_query]))

    @property
    def avg_query_seconds(self) -> float:
        """Mean wall-clock query time."""
        if not self.per_query:
            return 0.0
        return float(np.mean([q.query_seconds for q in self.per_query]))

    @property
    def avg_query_ms(self) -> float:
        return self.avg_query_seconds * 1000.0

    def stats_summary(self) -> Dict[str, float]:
        """Average work counters per query."""
        return summarize_query_stats([q.result.stats for q in self.per_query])

    def as_record(self) -> Dict:
        """Flat dictionary for tables / JSON output."""
        record = {
            "method": self.method,
            "dataset": self.dataset,
            "k": self.k,
            "recall": self.recall,
            "avg_query_ms": self.avg_query_ms,
            "indexing_seconds": self.indexing_seconds,
            "index_size_mb": self.index_size_bytes / (1024.0 * 1024.0),
            "search_kwargs": dict(self.search_kwargs),
        }
        record.update(
            {f"avg_{key}": value for key, value in self.stats_summary().items()}
        )
        return record


def evaluate_index(
    index: P2HIndex,
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    method_name: Optional[str] = None,
    dataset_name: str = "dataset",
    ground_truth: Optional[np.ndarray] = None,
    search_kwargs: Optional[Dict] = None,
    fit: bool = True,
    n_jobs: Optional[int] = None,
    executor: str = "thread",
    options: Optional[SearchOptions] = None,
    searcher: Optional[Searcher] = None,
) -> EvaluationResult:
    """Fit (optionally) and evaluate ``index`` on a query workload.

    Parameters
    ----------
    index:
        The index instance to evaluate.
    points:
        Raw data points ``(n, d-1)``.
    queries:
        Hyperplane queries ``(q, d)``.
    k:
        Top-k size.
    method_name, dataset_name:
        Labels recorded in the result.
    ground_truth:
        Optional precomputed exact top-k indices ``(q, k)``; computed by
        brute force when omitted.
    search_kwargs:
        Extra options forwarded to ``index.search`` (e.g.
        ``candidate_fraction`` or ``probes_per_table``).
    fit:
        If False the index is assumed to be fitted on ``points`` already
        (lets a sweep reuse one index across many search settings).
    n_jobs, executor:
        Worker-pool configuration for the engine's batched execution; the
        results (and therefore recall) are identical for every setting.
    options:
        A pre-built :class:`repro.api.SearchOptions`; overrides ``k``,
        ``search_kwargs``, ``n_jobs`` and ``executor`` when given.  All
        option validation is centralized there either way (the legacy
        kwargs are folded into one via ``SearchOptions.from_kwargs``).
    searcher:
        An open :class:`repro.api.Searcher` session over ``index``; when
        given, the batch runs on its warm pool (sweeps over many search
        settings then pay pool setup once).  ``fit`` must be False and
        ``n_jobs``/``executor`` come from the session.
    """
    if options is not None and (
        search_kwargs or n_jobs is not None or executor != "thread"
    ):
        raise ValueError(
            "pass either options or the legacy "
            "search_kwargs/n_jobs/executor arguments, not both"
        )
    if options is None:
        if searcher is not None:
            # Inherit the session's configuration so the evaluation runs
            # (and is *recorded*) with what the session will actually do;
            # explicit search_kwargs overlay the session's per-search knobs.
            session_options = searcher.options
            merged = session_options.search_kwargs()
            merged.update(search_kwargs or {})
            options = SearchOptions.from_kwargs(
                k=k,
                n_jobs=session_options.n_jobs,
                executor=session_options.executor,
                **merged,
            )
        else:
            options = SearchOptions.from_kwargs(
                k=k, n_jobs=n_jobs, executor=executor,
                **dict(search_kwargs or {}),
            )
    search_kwargs = options.search_kwargs()
    if searcher is not None:
        if searcher.index is not index:
            raise ValueError(
                "the provided searcher session wraps a different index"
            )
        if fit:
            raise ValueError(
                "fit=True would rebuild the index under an open Searcher "
                "session; fit before opening the session"
            )
    if fit:
        index.fit(points)
    if ground_truth is None:
        ground_truth, _ = exact_ground_truth(points, queries, options.k)

    report = indexing_report(index)
    evaluation = EvaluationResult(
        method=method_name or type(index).__name__,
        dataset=dataset_name,
        k=options.k,
        search_kwargs=search_kwargs,
        indexing_seconds=report["indexing_seconds"],
        index_size_bytes=int(report["index_size_bytes"]),
    )

    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if searcher is not None:
        batch = searcher.batch_search(
            queries, k=options.k, **search_kwargs
        )
    else:
        with Searcher(index, options) as session:
            batch = session.batch_search(queries)
    for result, truth in zip(batch, ground_truth):
        recall = average_recall([result], truth[None, :])
        evaluation.per_query.append(
            QueryEvaluation(
                recall=recall,
                query_seconds=result.stats.elapsed_seconds,
                result=result,
            )
        )
    return evaluation


def evaluate_method_grid(
    method_factories: Dict[str, Callable[[], P2HIndex]],
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    dataset_name: str = "dataset",
    search_grid: Optional[Dict[str, Sequence[Dict]]] = None,
) -> List[EvaluationResult]:
    """Evaluate several methods (and search settings) on the same workload.

    Parameters
    ----------
    method_factories:
        Mapping from method name to a zero-argument factory returning a
        fresh, unfitted index.
    search_grid:
        Optional mapping from method name to a list of search-kwargs
        dictionaries; each setting is evaluated on the already-fitted index
        (so indexing cost is paid once per method).
    """
    ground_truth, _ = exact_ground_truth(points, queries, k)
    results: List[EvaluationResult] = []
    for name, factory in method_factories.items():
        index = factory()
        settings = (search_grid or {}).get(name, [{}])
        fitted = False
        for setting in settings:
            results.append(
                evaluate_index(
                    index,
                    points,
                    queries,
                    k,
                    method_name=name,
                    dataset_name=dataset_name,
                    ground_truth=ground_truth,
                    search_kwargs=setting,
                    fit=not fitted,
                )
            )
            fitted = True
    return results
