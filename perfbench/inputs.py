"""Inputs drawn from the seed, and the checker every answer goes through.

The checker is the oracle: float64 brute force over the raw points,
computed one query chunk at a time (the full query x point distance
matrix of a run would not fit in memory).  An answer passes when it holds
exactly ``k`` distinct valid ids, every returned distance matches the
distance recomputed from the raw points, and no returned distance exceeds
the true k-th distance -- ``epsilon_recall`` of 1.0 -- both up to the
cancellation bound ``dim * eps * ||x|| * ||q||`` of the arithmetic
(float64 for exact answers, float32 for ``exact=False`` ones).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

import config

CHUNK = 256


def make_points(seed: int, count: int) -> np.ndarray:
    """``count`` Sift-surrogate points (clustered Gaussian) for ``seed``."""
    from repro.datasets import load_dataset

    return load_dataset(config.DATASET, num_points=count, seed=seed).points


def make_queries(points: np.ndarray, seed: int, count: int) -> np.ndarray:
    """``count`` distinct Gaussian hyperplane queries for ``seed``."""
    from repro.datasets import random_hyperplane_queries

    rng = np.random.default_rng([seed, 7])
    return random_hyperplane_queries(points, count, rng=rng)


def split(queries: np.ndarray, sizes: Sequence[int]) -> List[np.ndarray]:
    """Cut one query stream into consecutive, disjoint phase slices."""
    if sum(sizes) > queries.shape[0]:
        raise ValueError("not enough queries drawn for the phases")
    out, start = [], 0
    for size in sizes:
        out.append(queries[start:start + size])
        start += size
    return out


def normalize(queries: np.ndarray) -> np.ndarray:
    """Scale each hyperplane so its normal has unit norm (P2H distance)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    return queries / np.linalg.norm(queries[:, :-1], axis=1, keepdims=True)


class Checker:
    """Brute-force oracle over a fixed point set (ids are row numbers)."""

    def __init__(self, points: np.ndarray, k: int) -> None:
        raw = np.asarray(points, dtype=np.float64)
        self.points = np.hstack([raw, np.ones((raw.shape[0], 1))])
        self.k = int(k)
        self.dim = self.points.shape[1]
        self.max_norm = float(np.linalg.norm(self.points, axis=1).max())

    def tolerance(self, qn: np.ndarray, fast: bool) -> np.ndarray:
        eps = np.finfo(np.float32 if fast else np.float64).eps
        return self.dim * eps * self.max_norm * np.linalg.norm(qn, axis=1)

    def check(
        self,
        queries: np.ndarray,
        answers: Sequence[Optional[Tuple[Sequence[int], Sequence[float]]]],
        *,
        fast: bool = False,
    ) -> np.ndarray:
        """Per-query pass/fail of ``answers`` (None marks a failed request)."""
        queries = np.atleast_2d(queries)
        ok = np.zeros(len(answers), dtype=bool)
        for start in range(0, len(answers), CHUNK):
            stop = min(start + CHUNK, len(answers))
            qn = normalize(queries[start:stop])
            dist = np.abs(qn @ self.points.T)
            kth = np.partition(dist, self.k - 1, axis=1)[:, self.k - 1]
            tol = self.tolerance(qn, fast)
            for row in range(stop - start):
                ok[start + row] = self._row_ok(
                    answers[start + row], dist[row], kth[row], tol[row], None
                )
        return ok

    def check_live(
        self,
        query: np.ndarray,
        answer: Optional[Tuple[Sequence[int], Sequence[float]]],
        live_sets: Iterable[np.ndarray],
        *,
        fast: bool = False,
    ) -> bool:
        """Pass if the answer is exact for the live set of any candidate
        snapshot (a boolean mask over ids per snapshot)."""
        if answer is None:
            return False
        qn = normalize(query)
        dist = np.abs(qn @ self.points.T)[0]
        tol = float(self.tolerance(qn, fast)[0])
        for live in live_sets:
            kth = np.partition(dist[live], self.k - 1)[self.k - 1]
            if self._row_ok(answer, dist, kth, tol, live):
                return True
        return False

    def _row_ok(self, answer, dist, kth, tol, live) -> bool:
        if answer is None:
            return False
        ids = np.asarray(answer[0], dtype=np.int64)
        got = np.asarray(answer[1], dtype=np.float64)
        if ids.shape != (self.k,) or got.shape != (self.k,):
            return False
        if ids.min() < 0 or ids.max() >= dist.shape[0]:
            return False
        if np.unique(ids).size != self.k:
            return False
        if live is not None and not live[ids].all():
            return False
        true = dist[ids]
        if np.any(np.abs(true - got) > tol):
            return False
        return bool(true.max() <= kth + tol)
