"""Parameter sweeps producing query-time / recall trade-off curves.

Figures 5, 6, 7, 9 and 11 of the paper are all built from the same
primitive: for a fixed index, vary the knob that trades accuracy for time
(candidate fraction for the trees, probes/tables for the hashing schemes),
measure (recall, query time) at every setting, and either plot the whole
curve (Fig. 5/7/9/11) or pick the cheapest setting reaching a target recall
(Fig. 6/10: "query time at about 80% recall").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.index_base import P2HIndex
from repro.eval.ground_truth import exact_ground_truth
from repro.eval.runner import EvaluationResult, evaluate_index


@dataclass
class SweepPoint:
    """One (setting, recall, query time) point of a trade-off curve."""

    search_kwargs: Dict
    recall: float
    avg_query_ms: float
    evaluation: EvaluationResult = field(repr=False, default=None)


def sweep_index(
    index: P2HIndex,
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    settings: Sequence[Dict],
    *,
    method_name: Optional[str] = None,
    dataset_name: str = "dataset",
    ground_truth: Optional[np.ndarray] = None,
) -> List[SweepPoint]:
    """Evaluate a fitted index under several search settings.

    The index is never refitted, so one fit serves every sweep a caller
    runs on it (Figure 6 sweeps each fitted method once per k).

    Parameters
    ----------
    index:
        An index already fitted on ``points``.
    settings:
        A list of search-kwargs dictionaries, e.g.
        ``[{"candidate_fraction": 0.01}, {"candidate_fraction": 0.05}, {}]``.
    """
    if ground_truth is None:
        ground_truth, _ = exact_ground_truth(points, queries, k)
    curve: List[SweepPoint] = []
    for setting in settings:
        evaluation = evaluate_index(
            index,
            points,
            queries,
            k,
            method_name=method_name,
            dataset_name=dataset_name,
            ground_truth=ground_truth,
            search_kwargs=setting,
            fit=False,
        )
        curve.append(
            SweepPoint(
                search_kwargs=dict(setting),
                recall=evaluation.recall,
                avg_query_ms=evaluation.avg_query_ms,
                evaluation=evaluation,
            )
        )
    return curve


def pareto_frontier(curve: Sequence[SweepPoint]) -> List[SweepPoint]:
    """Keep only the points that are not dominated (higher recall, lower time).

    The paper reports "the lowest query time of a method for a certain
    recall from all its parameter combinations" — the Pareto frontier of the
    sweep.
    """
    ordered = sorted(curve, key=lambda p: (p.recall, -p.avg_query_ms))
    frontier: List[SweepPoint] = []
    best_time = float("inf")
    for point in reversed(ordered):  # from highest recall downwards
        if point.avg_query_ms < best_time:
            frontier.append(point)
            best_time = point.avg_query_ms
    frontier.reverse()
    return frontier


def best_recall_point(curve: Sequence[SweepPoint]) -> SweepPoint:
    """The sweep point with the highest recall (ties broken by lower time)."""
    if not curve:
        raise ValueError("empty sweep curve")
    return max(curve, key=lambda p: (p.recall, -p.avg_query_ms))


def default_tree_settings(
    fractions: Sequence[float] = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
) -> List[Dict]:
    """Candidate-fraction sweep used by the tree indexes (plus exact search)."""
    settings: List[Dict] = [
        {"candidate_fraction": float(fraction)} for fraction in fractions if fraction < 1.0
    ]
    settings.append({})  # exact search (no budget)
    return settings


def default_hash_settings(
    probes: Sequence[int] = (4, 8, 16, 32, 64, 128, 256, 512),
) -> List[Dict]:
    """Probes-per-table sweep used by the NH / FH baselines."""
    return [{"probes_per_table": int(p)} for p in probes]
