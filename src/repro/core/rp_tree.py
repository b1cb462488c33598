"""Randomized Projection Tree (RP-Tree) baseline for P2HNNS.

The paper's Section I and III-A list Randomized Partition Trees (Dasgupta &
Freund, STOC 2008; Dasgupta & Sinha, COLT 2013) among the tree-based methods
with roughly linear construction cost.  This module provides that baseline
on top of the library's shared tree machinery: the tree is built with
*random-projection median splits* instead of the paper's seed-grow rule, but
every node still stores the centroid and enclosing-ball radius, so the exact
same node-level ball bound (Theorem 2) and branch-and-bound search apply.

Comparing RP-Tree with Ball-Tree therefore isolates the effect of the
*splitting rule* on pruning power — one of the design choices DESIGN.md
calls out for ablation (``benchmarks/bench_ablation_split_rule.py``).

Split rule
----------
For a node with points ``P``:

1. draw a random unit direction ``u``;
2. project every point: ``t_i = <u, p_i>``;
3. split at a jittered median of the projections (the jitter, drawn
   uniformly from the middle two quartiles, is the classic RP-tree trick to
   avoid adversarial splits while keeping the two halves balanced).

The rule degenerates to a positional split when all projections coincide,
guaranteeing progress on duplicate-heavy data.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.ball_tree import BallTree
from repro.core.policies import BranchPreference
from repro.core.tree_base import build_tree
from repro.utils.rng import ensure_rng


def random_projection_split(
    points: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Split a node's points at a jittered median of a random projection.

    Parameters
    ----------
    points:
        The points of the node being split, shape ``(m, d)`` with ``m >= 2``.
    rng:
        Random generator used to draw the projection direction and jitter.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Local row-index arrays ``(left_rows, right_rows)``, both non-empty.
    """
    m, dim = points.shape
    if m < 2:
        raise ValueError("need at least two points to split a node")
    direction = rng.normal(size=dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction = np.ones(dim)
        norm = float(np.linalg.norm(direction))
    direction /= norm

    projections = points @ direction
    lower, upper = np.percentile(projections, [25.0, 75.0])
    if upper > lower:
        threshold = float(rng.uniform(lower, upper))
    else:
        threshold = float(np.median(projections))

    left_rows = np.flatnonzero(projections <= threshold)
    right_rows = np.flatnonzero(projections > threshold)
    if left_rows.size == 0 or right_rows.size == 0:
        # All projections equal (duplicate points): fall back to a positional
        # split so construction always terminates.
        half = m // 2
        return np.arange(half), np.arange(half, m)
    return left_rows, right_rows


class RPTree(BallTree):
    """Random-projection tree index for P2HNNS.

    The search algorithm, branch preferences, and approximate-search budget
    are inherited from :class:`~repro.core.ball_tree.BallTree`; only the
    construction-time splitting rule differs.  ``search`` and batches —
    exact and under ``candidate_fraction`` / ``max_candidates`` budgets —
    therefore run the same block traversal kernel
    (:mod:`repro.engine.block`).

    Parameters
    ----------
    leaf_size:
        Maximum number of points per leaf.
    branch_preference:
        Child-visit ordering during search (center preference by default).
    random_state:
        Seed or generator for the random projections.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.rp_tree import RPTree
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(500, 16))
    >>> tree = RPTree(leaf_size=32, random_state=0).fit(data)
    >>> len(tree.search(rng.normal(size=17), k=5))
    5
    """

    def __init__(
        self,
        leaf_size: int = 100,
        *,
        branch_preference=BranchPreference.CENTER,
        random_state=None,
        augment: bool = True,
        normalize_queries: bool = True,
        storage=None,
    ) -> None:
        super().__init__(
            leaf_size,
            branch_preference=branch_preference,
            random_state=random_state,
            augment=augment,
            normalize_queries=normalize_queries,
            storage=storage,
        )

    def _build(self, points: np.ndarray) -> None:
        self.tree = build_tree(
            points,
            self.leaf_size,
            rng=ensure_rng(self.random_state),
            centers_from_children=False,
            split_fn=random_projection_split,
        )
