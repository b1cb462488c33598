"""Exhaustive linear scan — the exact baseline and ground-truth generator.

The paper calls this "a trivial solution ... computationally prohibitive";
it is nevertheless indispensable both as a correctness oracle for every
other index and as the recall denominator in the evaluation harness.

Batched queries run :class:`~repro.core.index_base.P2HIndex`'s default
kernel: one ``|P @ q|`` GEMV per row, the same code :meth:`search` runs,
so batches are bit-identical to sequential search.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.index_base import P2HIndex
from repro.core.results import SearchResult, SearchStats


class LinearScan(P2HIndex):
    """Brute-force P2HNNS by scanning every point.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import LinearScan
    >>> data = np.eye(4)
    >>> scan = LinearScan().fit(data)
    >>> result = scan.search(np.array([1.0, 0.0, 0.0, 0.0, -0.5]), k=2)
    >>> len(result)
    2
    """

    def _build(self, points: np.ndarray) -> None:
        # Nothing to build: the "index" is the data matrix itself.
        return None

    def _payload_arrays(self) -> Sequence[np.ndarray]:
        return ()

    def _search_one(self, query: np.ndarray, k: int, **kwargs) -> SearchResult:
        if kwargs:
            unexpected = ", ".join(sorted(kwargs))
            raise TypeError(f"LinearScan.search got unexpected options: {unexpected}")
        distances = np.abs(self._points @ query)
        stats = SearchStats(candidates_verified=self.num_points)
        order = _top_k_ascending(distances, k)
        return SearchResult(
            indices=order.astype(np.int64),
            distances=distances[order],
            stats=stats,
        )


def _top_k_ascending(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances, sorted ascending (stable)."""
    if k >= distances.shape[0]:
        order = np.argsort(distances, kind="stable")
    else:
        # Partial selection then sort only the k smallest.
        top = np.argpartition(distances, k)[:k]
        order = top[np.argsort(distances[top], kind="stable")]
    return order[:k]
