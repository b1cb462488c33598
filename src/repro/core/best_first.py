"""Best-first (priority-queue) traversal for Ball-Tree and BC-Tree.

The paper's Algorithms 3 and 5 traverse the tree depth-first, ordering the
two children of every expanded node by the branch preference.  A classical
alternative for ball trees is *best-first* search: keep a global priority
queue of frontier nodes ordered by their node-level ball bound (Theorem 2)
and always expand the most promising node next.

Best-first search visits nodes in non-decreasing bound order, so with an
unlimited budget it expands the minimum possible number of nodes for the
bound it uses.  Its price is the priority-queue overhead and the loss of
the cheap, cache-friendly stack discipline — which is exactly the trade-off
the ablation benchmark ``bench_ablation_traversal_order.py`` measures.

Both traversal orders are two modes of the same block traversal kernel
(:mod:`repro.engine.block`): a stack frontier vs. a heap frontier, with
the same leaf scans.  This module is a thin façade that runs the owning
index's cached kernel with ``order="best_first"``, so BC-Tree's
point-level leaf pruning and the collaborative inner-product accounting
apply identically.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.ball_tree import BallTree
from repro.core.index_base import NotFittedError
from repro.core.results import SearchResult
from repro.engine.batch import BatchSearchResult, execute_batch
from repro.engine.block import attach_block_timing
from repro.utils.validation import check_query_vector


class BestFirstSearcher:
    """Best-first P2HNNS search over a fitted Ball-Tree or BC-Tree.

    Parameters
    ----------
    index:
        A fitted :class:`BallTree` or :class:`BCTree`.  The searcher reads
        the index's tree arrays; it never mutates the index.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import BCTree
    >>> from repro.core.best_first import BestFirstSearcher
    >>> rng = np.random.default_rng(3)
    >>> data = rng.normal(size=(400, 12))
    >>> tree = BCTree(leaf_size=32, random_state=3).fit(data)
    >>> searcher = BestFirstSearcher(tree)
    >>> result = searcher.search(rng.normal(size=13), k=5)
    >>> len(result)
    5
    """

    def __init__(self, index: BallTree) -> None:
        if not isinstance(index, BallTree):
            raise TypeError(
                "BestFirstSearcher requires a BallTree or BCTree, "
                f"got {type(index).__name__}"
            )
        if index.tree is None:
            raise NotFittedError("the index must be fitted before best-first search")
        self.index = index

    # ------------------------------------------------------------------ API

    def search(
        self,
        query: np.ndarray,
        k: int = 1,
        *,
        candidate_fraction: Optional[float] = None,
        max_candidates: Optional[int] = None,
    ) -> SearchResult:
        """Return the top-``k`` nearest points to the hyperplane ``query``.

        Parameters
        ----------
        query:
            Hyperplane coefficients of shape ``(d,)``; normalized according
            to the owning index's ``normalize_queries`` setting.
        k:
            Number of neighbors to return.
        candidate_fraction, max_candidates:
            Optional approximate-search budget, interpreted exactly as by
            :meth:`BallTree.search`.
        """
        q = check_query_vector(query, name="query")
        return self._batch_kernel(
            q[None, :],
            k,
            candidate_fraction=candidate_fraction,
            max_candidates=max_candidates,
        )[0]

    def batch_search(
        self,
        queries: np.ndarray,
        k: int = 1,
        *,
        n_jobs: Optional[int] = None,
        **search_kwargs,
    ) -> BatchSearchResult:
        """Best-first :meth:`search` for every row of ``queries``.

        Dispatched through :func:`repro.engine.batch.execute_batch`, so the
        results are bit-identical to sequential calls for every ``n_jobs``.
        """
        return execute_batch(self, queries, k, n_jobs=n_jobs, **search_kwargs)

    def _batch_kernel(
        self,
        queries: np.ndarray,
        k: int,
        *,
        candidate_fraction: Optional[float] = None,
        max_candidates: Optional[int] = None,
    ) -> List[SearchResult]:
        """Answer a query block with the owning index's kernel, best-first.

        The owning index's own normalization and budget resolution run
        first, so a best-first search sees exactly the query and budget a
        depth-first search does.
        """
        wall_tic = time.perf_counter()
        index = self.index
        matrix = index._prepare_query_matrix(queries)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(int(k), index.num_points)
        budget = index._resolve_budget(candidate_fraction, max_candidates)
        results = index._engine().block_kernel().search_block(
            matrix, k, budget=budget, order="best_first"
        )
        attach_block_timing(results, time.perf_counter() - wall_tic)
        return results


def best_first_search(
    index: BallTree,
    query: np.ndarray,
    k: int = 1,
    *,
    candidate_fraction: Optional[float] = None,
    max_candidates: Optional[int] = None,
) -> SearchResult:
    """Convenience wrapper: one-off best-first search on a fitted tree index."""
    searcher = BestFirstSearcher(index)
    return searcher.search(
        query,
        k=k,
        candidate_fraction=candidate_fraction,
        max_candidates=max_candidates,
    )
