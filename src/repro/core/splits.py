"""Node splitting rules for Ball-Tree / BC-Tree construction.

The paper uses the classic *seed-grow* rule (Algorithm 2): pick a random
point ``v``, take the point ``x_l`` furthest from ``v`` and the point
``x_r`` furthest from ``x_l`` as pivots, then assign every point to its
closer pivot.  The assignment reuses the pivot search's distances to
``x_l``, so a split makes three distance passes (:func:`row_distances`).
A positional fallback splits the node when the rule degenerates (all
points identical), and the split is a pure function on index arrays so
trees can share it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def row_distances(
    rows: np.ndarray, point: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``np.linalg.norm(rows - point, axis=1)``, bit for bit, in ``scratch``.

    The same row-wise operations in the same order (difference, square,
    ``add.reduce`` along each row, ``sqrt``), with the difference and its
    square written into ``scratch`` (C-contiguous, ``rows``' shape and
    dtype, overlapping neither input) instead of two fresh temporaries.
    """
    np.subtract(rows, point, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    distances = np.add.reduce(scratch, axis=1)
    return np.sqrt(distances, out=distances)


def _seed_grow_pivots(
    points: np.ndarray, rng: np.random.Generator, scratch: np.ndarray
) -> Tuple[int, int, np.ndarray]:
    """Seed-grow pivots plus every row's distance to the left pivot."""
    m = points.shape[0]
    if m < 2:
        raise ValueError("need at least two points to pick split pivots")
    seed = int(rng.integers(0, m))
    left = int(np.argmax(row_distances(points, points[seed], scratch)))
    dist_to_left = row_distances(points, points[left], scratch)
    right = int(np.argmax(dist_to_left))
    return left, right, dist_to_left


def seed_grow_pivots(
    points: np.ndarray, rng: np.random.Generator
) -> Tuple[int, int]:
    """Select two far-apart pivot rows with the seed-grow rule (Algorithm 2).

    Parameters
    ----------
    points:
        The points of the node being split, shape ``(m, d)`` with ``m >= 2``.
    rng:
        Random generator used to draw the seed point.

    Returns
    -------
    (int, int)
        Row indices (local to ``points``) of the left and right pivots.
    """
    return _seed_grow_pivots(points, rng, np.empty_like(points))[:2]


def seed_grow_split(
    points: np.ndarray, rng: np.random.Generator, scratch=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Partition ``points`` into two halves around seed-grow pivots.

    Every point goes to the pivot it is closer to (ties to the left pivot,
    matching Algorithm 1 line 8).  If the rule degenerates — all points are
    identical so both pivots coincide — the node is split by position into
    two near-equal halves so construction always terminates.

    ``scratch`` is the distance passes' work matrix (see
    :func:`row_distances`); the tree builder passes one reused at every node.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Boolean-free local index arrays ``(left_rows, right_rows)``; both are
        non-empty whenever ``points`` has at least two rows.
    """
    m = points.shape[0]
    if scratch is None:
        scratch = np.empty_like(points)
    left_pivot, right_pivot, dist_left = _seed_grow_pivots(points, rng, scratch)
    if left_pivot == right_pivot or np.allclose(
        points[left_pivot], points[right_pivot]
    ):
        half = m // 2
        return np.arange(half), np.arange(half, m)

    dist_right = row_distances(points, points[right_pivot], scratch)
    to_left = dist_left <= dist_right
    left_rows = np.flatnonzero(to_left)
    right_rows = np.flatnonzero(~to_left)
    if left_rows.size == 0 or right_rows.size == 0:
        # Numerically possible when many duplicates collapse on one pivot:
        # fall back to a positional split to guarantee progress.
        half = m // 2
        return np.arange(half), np.arange(half, m)
    return left_rows, right_rows
