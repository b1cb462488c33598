"""Maximum Inner Product Search (MIPS) on the same Ball-Tree structure.

Section VI of the paper relates P2HNNS to MIPS: both minimize / maximize an
inner product and neither objective is a metric.  The classic tree-based
MIPS method (Ram & Gray, KDD 2012) bounds the maximum inner product of a
query ``q`` with any point inside a ball centered at ``c`` with radius ``r``
by

    max_{x in B(c, r)} <x, q>  <=  <q, c> + ||q|| * r

which is the mirror image of the paper's node-level ball bound (Theorem 2).
This module implements that branch-and-bound on the library's flat
:class:`~repro.core.tree_base.TreeArrays`, both to reproduce the related-work
baseline and because a MIPS index falls out of the Ball-Tree machinery almost
for free — it is a useful extension for downstream users (recommendation
retrieval, max-kernel search).

Two query modes are provided:

* :meth:`BallTreeMIPS.search` — top-k *maximum inner product* (signed).
* :meth:`BallTreeMIPS.search_absolute` — top-k *maximum absolute* inner
  product, i.e. the point-to-hyperplane *furthest* neighbor after the
  paper's augmentation; the node bound becomes ``|<q, c>| + ||q|| r``.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.index_base import NotFittedError
from repro.core.results import SearchResult, SearchStats
from repro.core.tree_base import NO_CHILD, TreeArrays, build_tree
from repro.engine.batch import BatchSearchResult, execute_batch
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_points_matrix,
    check_positive_int,
    check_query_vector,
)


class _TopKMaxCollector:
    """Bounded min-heap of the k largest scores seen so far."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self._heap: List[Tuple[float, int]] = []

    @property
    def threshold(self) -> float:
        """Current k-th largest score (``-inf`` until k candidates are seen)."""
        if len(self._heap) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def offer(self, index: int, score: float) -> bool:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (score, index))
            return True
        if score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, index))
            return True
        return False

    def offer_batch(self, indices: np.ndarray, scores: np.ndarray) -> None:
        if len(indices) == 0:
            return
        threshold = self.threshold
        if np.isfinite(threshold):
            mask = scores > threshold
            if not mask.any():
                return
            indices = indices[mask]
            scores = scores[mask]
        for idx, score in zip(indices, scores):
            self.offer(int(idx), float(score))

    def to_result(self, stats: SearchStats) -> SearchResult:
        if not self._heap:
            return SearchResult(
                indices=np.empty(0, dtype=np.int64),
                distances=np.empty(0, dtype=np.float64),
                stats=stats,
            )
        pairs = sorted(self._heap, reverse=True)
        scores = np.array([p[0] for p in pairs], dtype=np.float64)
        indices = np.array([p[1] for p in pairs], dtype=np.int64)
        return SearchResult(indices=indices, distances=scores, stats=stats)


def node_mips_bound(ip_center: float, query_norm: float, radius: float) -> float:
    """Upper bound on ``<x, q>`` for any ``x`` in the ball (Ram & Gray 2012)."""
    return ip_center + query_norm * radius


def node_absolute_mips_bound(
    ip_center: float, query_norm: float, radius: float
) -> float:
    """Upper bound on ``|<x, q>|`` for any ``x`` in the ball.

    The absolute value of the inner product is maximized either on the side
    of the ball closest to ``q`` (positive direction) or furthest from it
    (negative direction); both are covered by ``|<q, c>| + ||q|| r``.
    """
    return abs(ip_center) + query_norm * radius


class BallTreeMIPS:
    """Ball-Tree index for (absolute) maximum inner product search.

    Unlike the P2HNNS indexes, MIPS queries are ordinary vectors (not
    hyperplanes), so points are *not* augmented and queries are *not*
    rescaled.

    Parameters
    ----------
    leaf_size:
        Maximum number of points per leaf.
    random_state:
        Seed or generator for the seed-grow split.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.mips import BallTreeMIPS
    >>> rng = np.random.default_rng(1)
    >>> data = rng.normal(size=(300, 8))
    >>> index = BallTreeMIPS(leaf_size=32, random_state=1).fit(data)
    >>> result = index.search(rng.normal(size=8), k=3)
    >>> len(result)
    3
    """

    def __init__(self, leaf_size: int = 100, *, random_state=None) -> None:
        self.leaf_size = check_positive_int(leaf_size, name="leaf_size")
        self.random_state = random_state
        self.tree: Optional[TreeArrays] = None
        self._points: Optional[np.ndarray] = None
        self.num_points: int = 0
        self.dim: int = 0
        self.indexing_seconds: float = 0.0
        # Bumped by every (re)fit; see P2HIndex for the session contract.
        self._mutation_version: int = 0

    # ------------------------------------------------------------------ API

    def fit(self, points: np.ndarray) -> "BallTreeMIPS":
        """Build the index over raw ``(n, d)`` points."""
        pts = check_points_matrix(points, name="points")
        self._points = pts
        self.num_points, self.dim = pts.shape
        self._mutation_version += 1
        with Timer() as timer:
            self.tree = build_tree(pts, self.leaf_size, rng=self.random_state)
        self.indexing_seconds = timer.elapsed
        return self

    def search(self, query: np.ndarray, k: int = 1) -> SearchResult:
        """Top-``k`` points maximizing the *signed* inner product ``<x, q>``."""
        return self._search(query, k, absolute=False)

    def search_absolute(self, query: np.ndarray, k: int = 1) -> SearchResult:
        """Top-``k`` points maximizing ``|<x, q>|`` (P2H furthest neighbors)."""
        return self._search(query, k, absolute=True)

    def batch_search(
        self,
        queries: np.ndarray,
        k: int = 1,
        *,
        n_jobs: Optional[int] = None,
        executor: str = "thread",
        absolute: bool = False,
    ) -> BatchSearchResult:
        """Run :meth:`search` (or :meth:`search_absolute`) for every query.

        Dispatched through :func:`repro.engine.batch.execute_batch`, so
        results are bit-identical to sequential per-query calls for every
        ``n_jobs`` and both executors.
        """
        return execute_batch(
            self, queries, k, n_jobs=n_jobs, executor=executor,
            absolute=absolute,
        )

    def _batch_kernel(
        self, queries: np.ndarray, k: int, *, absolute: bool = False
    ) -> List[SearchResult]:
        """The engine's batched entry point: :meth:`_search` per row."""
        return [self._search(row, k, absolute=absolute) for row in queries]

    def index_size_bytes(self) -> int:
        """Memory footprint of the tree arrays in bytes."""
        self._check_fitted()
        return int(sum(arr.nbytes for arr in self.tree.payload_arrays()))

    # ------------------------------------------------------------ internals

    def _check_fitted(self) -> None:
        if self.tree is None or self._points is None:
            raise NotFittedError("BallTreeMIPS must be fitted before searching")

    def _search(self, query: np.ndarray, k: int, *, absolute: bool) -> SearchResult:
        self._check_fitted()
        q = check_query_vector(query, expected_dim=self.dim, name="query")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(int(k), self.num_points)

        tree = self.tree
        points = self._points
        centers = tree.centers
        radii = tree.radii
        query_norm = float(np.linalg.norm(q))
        bound_fn = node_absolute_mips_bound if absolute else node_mips_bound

        stats = SearchStats()
        collector = _TopKMaxCollector(k)

        with Timer() as timer:
            root_ip = float(centers[0] @ q)
            stats.center_inner_products += 1
            stack = [(0, root_ip)]
            while stack:
                node, ip_node = stack.pop()
                stats.nodes_visited += 1
                upper = bound_fn(ip_node, query_norm, radii[node])
                if upper <= collector.threshold:
                    continue

                left = tree.left_child[node]
                if left == NO_CHILD:
                    start, end = tree.start[node], tree.end[node]
                    indices = tree.perm[start:end]
                    scores = points[indices] @ q
                    if absolute:
                        scores = np.abs(scores)
                    collector.offer_batch(indices, scores)
                    stats.candidates_verified += int(indices.shape[0])
                    stats.leaves_scanned += 1
                    continue

                right = tree.right_child[node]
                ip_left = float(centers[left] @ q)
                ip_right = float(centers[right] @ q)
                stats.center_inner_products += 2
                upper_left = bound_fn(ip_left, query_norm, radii[left])
                upper_right = bound_fn(ip_right, query_norm, radii[right])
                # Visit the more promising child first (larger upper bound)
                # by pushing it last onto the stack.
                if upper_left >= upper_right:
                    stack.append((right, ip_right))
                    stack.append((left, ip_left))
                else:
                    stack.append((left, ip_left))
                    stack.append((right, ip_right))
        stats.elapsed_seconds = timer.elapsed
        return collector.to_result(stats)

    def _payload_arrays(self) -> Sequence[np.ndarray]:
        if self.tree is None:
            return ()
        return self.tree.payload_arrays()


def linear_mips(points: np.ndarray, query: np.ndarray, k: int = 1) -> SearchResult:
    """Brute-force top-k MIPS (ground truth for tests and benchmarks)."""
    pts = check_points_matrix(points, name="points")
    q = check_query_vector(query, expected_dim=pts.shape[1], name="query")
    k = min(check_positive_int(k, name="k"), pts.shape[0])
    scores = pts @ q
    order = np.argsort(-scores, kind="stable")[:k]
    stats = SearchStats(candidates_verified=int(pts.shape[0]))
    return SearchResult(
        indices=order.astype(np.int64),
        distances=scores[order].astype(np.float64),
        stats=stats,
    )


def linear_mips_batch(
    points: np.ndarray, queries: np.ndarray, k: int = 1
) -> List[SearchResult]:
    """Brute-force top-k MIPS for a whole query batch with one matmul.

    Equivalent to ``[linear_mips(points, q, k) for q in queries]`` up to
    BLAS GEMM-vs-GEMV rounding in the last ulp of the scores.
    """
    pts = check_points_matrix(points, name="points")
    matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if matrix.shape[1] != pts.shape[1]:
        raise ValueError(
            f"queries have dimension {matrix.shape[1]}, expected {pts.shape[1]}"
        )
    k = min(check_positive_int(k, name="k"), pts.shape[0])
    scores = pts @ matrix.T  # one GEMM for the whole batch
    results: List[SearchResult] = []
    for column in range(scores.shape[1]):
        column_scores = scores[:, column]
        order = np.argsort(-column_scores, kind="stable")[:k]
        results.append(
            SearchResult(
                indices=order.astype(np.int64),
                distances=column_scores[order].astype(np.float64),
                stats=SearchStats(candidates_verified=int(pts.shape[0])),
            )
        )
    return results
