"""Evaluation metrics: recall, query time summaries, indexing overhead."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.core.index_base import P2HIndex
from repro.core.results import SearchResult, SearchStats


def recall_at_k(returned_indices: Sequence[int], true_indices: Sequence[int]) -> float:
    """Fraction of the exact top-k that the method returned (paper Section V-B).

    Parameters
    ----------
    returned_indices:
        Indices returned by the method under evaluation.
    true_indices:
        The exact top-k indices (the denominator is their count).
    """
    true_set = set(int(i) for i in true_indices)
    if not true_set:
        return 1.0
    returned_set = set(int(i) for i in returned_indices)
    return len(true_set & returned_set) / len(true_set)


def average_recall(
    results: Iterable[SearchResult], ground_truth_indices: np.ndarray
) -> float:
    """Mean recall over a batch of query results."""
    recalls = [
        recall_at_k(result.indices, truth)
        for result, truth in zip(results, ground_truth_indices)
    ]
    if not recalls:
        return 0.0
    return float(np.mean(recalls))


def epsilon_recall(
    returned_distances: Sequence[float],
    true_distances: Sequence[float],
    *,
    rel: float = 1e-4,
    abs_tol: float = 0.0,
) -> float:
    """Distance-aware recall: returned results within epsilon of the truth.

    Plain set recall (:func:`recall_at_k`) charges a miss whenever a method
    returns a *different* point than the exact top-k — even when the
    returned point's distance ties the exact k-th to the last bit (equal
    distances have no canonical order), or trails it by less than the
    arithmetic's own rounding error.  For the fast search mode
    (``exact=False``, float32 storage) that is the only kind of "miss"
    that occurs: the |<x, q>| distances near a hyperplane are small
    differences of large dot-product terms, so float32 cancellation can
    legitimately swap neighbors separated by less than
    ``dim * eps_f32 * ||x|| * ||q||``.

    A returned distance ``d`` counts as a hit when
    ``d <= kth * (1 + rel) + abs_tol`` where ``kth`` is the exact k-th
    distance.  Callers evaluating float32 results should set ``abs_tol``
    to the cancellation bound of their data scale (for unit-norm queries:
    ``dim * np.finfo(np.float32).eps * max_point_norm``).

    Both inputs are per-query 1-D distance arrays; the denominator is the
    number of true distances (short returns count against recall).
    """
    true_d = np.asarray(true_distances, dtype=np.float64)
    if true_d.size == 0:
        return 1.0
    got = np.sort(np.asarray(returned_distances, dtype=np.float64))
    kth = float(np.max(true_d))
    cutoff = kth * (1.0 + float(rel)) + float(abs_tol)
    hits = int(np.count_nonzero(got[: true_d.size] <= cutoff))
    return hits / float(true_d.size)


def summarize_query_stats(stats_list: Sequence[SearchStats]) -> Dict[str, float]:
    """Aggregate per-query counters into per-query means."""
    if not stats_list:
        return {}
    totals = SearchStats()
    for stats in stats_list:
        totals.merge(stats)
    count = len(stats_list)
    summary = {key: value / count for key, value in totals.as_dict().items()}
    summary["num_queries"] = float(count)
    return summary


def indexing_report(index: P2HIndex) -> Dict[str, float]:
    """Indexing time and size of a fitted index (Table III columns)."""
    return {
        "indexing_seconds": float(index.indexing_seconds),
        "index_size_bytes": float(index.index_size_bytes()),
        "index_size_mb": float(index.index_size_bytes()) / (1024.0 * 1024.0),
    }
