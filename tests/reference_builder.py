"""Reference tree builder for the byte-for-byte construction tests.

This is the straightforward formulation of Algorithms 1, 2 and 4 that
:func:`repro.core.tree_base.build_tree` must reproduce exactly: every node
gathers its rows with ``points[perm[start:end]]``, every distance pass is
``np.linalg.norm(rows - p, axis=1)``, and the seed-grow split computes the
left-pivot distances twice.  The library builder reorders a working copy in
place and reuses a scratch matrix instead; the tests compare every
:class:`~repro.core.tree_base.TreeArrays` field with ``np.array_equal``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.tree_base import NO_CHILD, TreeArrays
from repro.utils.rng import ensure_rng


def reference_seed_grow_pivots(
    points: np.ndarray, rng: np.random.Generator
) -> Tuple[int, int]:
    m = points.shape[0]
    if m < 2:
        raise ValueError("need at least two points to pick split pivots")
    seed = int(rng.integers(0, m))
    dist_to_seed = np.linalg.norm(points - points[seed], axis=1)
    left = int(np.argmax(dist_to_seed))
    dist_to_left = np.linalg.norm(points - points[left], axis=1)
    right = int(np.argmax(dist_to_left))
    return left, right


def reference_seed_grow_split(
    points: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    m = points.shape[0]
    left_pivot, right_pivot = reference_seed_grow_pivots(points, rng)
    if left_pivot == right_pivot or np.allclose(
        points[left_pivot], points[right_pivot]
    ):
        half = m // 2
        return np.arange(half), np.arange(half, m)

    dist_left = np.linalg.norm(points - points[left_pivot], axis=1)
    dist_right = np.linalg.norm(points - points[right_pivot], axis=1)
    to_left = dist_left <= dist_right
    left_rows = np.flatnonzero(to_left)
    right_rows = np.flatnonzero(~to_left)
    if left_rows.size == 0 or right_rows.size == 0:
        half = m // 2
        return np.arange(half), np.arange(half, m)
    return left_rows, right_rows


def reference_build_tree(
    points: np.ndarray,
    leaf_size: int,
    *,
    rng=None,
    centers_from_children: bool = False,
    split_fn=None,
) -> TreeArrays:
    rng = ensure_rng(rng)
    if split_fn is None:
        split_fn = reference_seed_grow_split
    n, d = points.shape
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")

    perm = np.arange(n, dtype=np.int64)
    centers: List[np.ndarray] = []
    radii: List[float] = []
    starts: List[int] = []
    ends: List[int] = []
    lefts: List[int] = []
    rights: List[int] = []

    def allocate_node(start: int, end: int) -> int:
        node_id = len(centers)
        centers.append(np.zeros(d, dtype=np.float64))
        radii.append(0.0)
        starts.append(start)
        ends.append(end)
        lefts.append(NO_CHILD)
        rights.append(NO_CHILD)
        return node_id

    root = allocate_node(0, n)
    stack = [(root, 0)]
    while stack:
        node_id, phase = stack.pop()
        start, end = starts[node_id], ends[node_id]
        size = end - start
        if phase == 1:
            left_id, right_id = lefts[node_id], rights[node_id]
            left_size = ends[left_id] - starts[left_id]
            right_size = ends[right_id] - starts[right_id]
            centers[node_id] = (
                centers[left_id] * left_size + centers[right_id] * right_size
            ) / size
            node_points = points[perm[start:end]]
            radii[node_id] = float(
                np.max(np.linalg.norm(node_points - centers[node_id], axis=1))
            )
            continue

        node_points = points[perm[start:end]]
        if size <= leaf_size:
            center = node_points.mean(axis=0)
            centers[node_id] = center
            radii[node_id] = float(
                np.max(np.linalg.norm(node_points - center, axis=1))
            )
            continue

        if not centers_from_children:
            center = node_points.mean(axis=0)
            centers[node_id] = center
            radii[node_id] = float(
                np.max(np.linalg.norm(node_points - center, axis=1))
            )

        left_rows, right_rows = split_fn(node_points, rng)
        local = perm[start:end]
        perm[start:end] = np.concatenate([local[left_rows], local[right_rows]])
        mid = start + left_rows.size

        left_id = allocate_node(start, mid)
        right_id = allocate_node(mid, end)
        lefts[node_id] = left_id
        rights[node_id] = right_id

        if centers_from_children:
            stack.append((node_id, 1))
        stack.append((right_id, 0))
        stack.append((left_id, 0))

    centers_arr = np.asarray(centers, dtype=np.float64)
    return TreeArrays(
        centers=centers_arr,
        radii=np.asarray(radii, dtype=np.float64),
        start=np.asarray(starts, dtype=np.int64),
        end=np.asarray(ends, dtype=np.int64),
        left_child=np.asarray(lefts, dtype=np.int64),
        right_child=np.asarray(rights, dtype=np.int64),
        perm=perm,
        center_norms=np.linalg.norm(centers_arr, axis=1),
    )


#: Kinds of raw input the byte-for-byte tests draw from.  ``grid`` rows
#: (coordinates in {0, 1, 2}) repeat and tie on pivot distances, so they
#: exercise the ``<=`` tie rule; ``identical`` and ``near_identical`` (spread
#: below ``np.allclose``'s tolerance) take the positional fallback.
POINT_KINDS = ("normal", "grid", "identical", "near_identical")


def make_points(kind: str, num_points: int, dim: int, seed: int) -> np.ndarray:
    """Raw ``(num_points, dim)`` points of one of :data:`POINT_KINDS`."""
    gen = np.random.default_rng(seed)
    if kind == "normal":
        return gen.normal(size=(num_points, dim))
    if kind == "grid":
        return gen.integers(0, 3, size=(num_points, dim)).astype(np.float64)
    base = np.full((num_points, dim), 1.5)
    if kind == "identical":
        return base
    if kind == "near_identical":
        return base + 1e-12 * gen.normal(size=(num_points, dim))
    raise ValueError(f"unknown point kind {kind!r}")
