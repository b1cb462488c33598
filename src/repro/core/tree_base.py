"""Flat-array ball tree construction shared by Ball-Tree and BC-Tree.

The paper's Algorithms 1 and 4 construct a binary space-partition tree with
the seed-grow split rule and store, per node, the centroid of its points and
the radius of the enclosing ball.  For an efficient NumPy implementation we
store the tree as a *structure of arrays* (the layout used by scikit-learn's
neighbor trees):

* ``perm`` — a permutation of ``0..n-1``; every node owns the contiguous
  slice ``perm[start:end]`` of it, and leaf points are therefore stored
  consecutively (matching the paper's observation that leaf points can be
  scanned sequentially).
* per-node arrays ``centers``, ``radii``, ``start``, ``end``,
  ``left_child`` / ``right_child`` (``-1`` marks a leaf).

Construction is iterative (explicit stack) so deep, unbalanced trees cannot
hit Python's recursion limit.  It reads every node's rows as a view of one
working copy kept in ``perm`` order and computes distances in one reused
scratch matrix, with the same bytes as per-node gathers and
``np.linalg.norm`` passes would give (see :func:`build_tree`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.splits import row_distances, seed_grow_split
from repro.utils.rng import ensure_rng

NO_CHILD = -1


@dataclass
class TreeArrays:
    """Flat representation of a built ball tree."""

    centers: np.ndarray       # (num_nodes, d) node centroids
    radii: np.ndarray         # (num_nodes,) enclosing-ball radii
    start: np.ndarray         # (num_nodes,) slice start into ``perm``
    end: np.ndarray           # (num_nodes,) slice end into ``perm``
    left_child: np.ndarray    # (num_nodes,) index of left child or -1
    right_child: np.ndarray   # (num_nodes,) index of right child or -1
    perm: np.ndarray          # (n,) permutation of point indices
    center_norms: np.ndarray  # (num_nodes,) ||center||, precomputed at build

    @property
    def num_nodes(self) -> int:
        return int(self.centers.shape[0])

    @property
    def num_leaves(self) -> int:
        return int(np.count_nonzero(self.left_child == NO_CHILD))

    def is_leaf(self, node: int) -> bool:
        return self.left_child[node] == NO_CHILD

    def node_size(self, node: int) -> int:
        return int(self.end[node] - self.start[node])

    def node_point_indices(self, node: int) -> np.ndarray:
        """Original point indices owned by ``node``."""
        return self.perm[self.start[node]: self.end[node]]

    def depth(self) -> int:
        """Height of the tree (root counts as depth 1)."""
        depths = np.zeros(self.num_nodes, dtype=np.int64)
        depths[0] = 1
        max_depth = 1
        for node in range(self.num_nodes):
            left = self.left_child[node]
            right = self.right_child[node]
            if left != NO_CHILD:
                depths[left] = depths[node] + 1
                depths[right] = depths[node] + 1
                max_depth = max(max_depth, depths[node] + 1)
        return int(max_depth)

    @classmethod
    def from_node_lists(cls, centers, radii, starts, ends, lefts, rights, perm):
        """Assemble the flat tree from a builder's per-node lists."""
        centers_arr = np.asarray(centers, dtype=np.float64)
        return cls(
            centers=centers_arr,
            radii=np.asarray(radii, dtype=np.float64),
            start=np.asarray(starts, dtype=np.int64),
            end=np.asarray(ends, dtype=np.int64),
            left_child=np.asarray(lefts, dtype=np.int64),
            right_child=np.asarray(rights, dtype=np.int64),
            perm=perm,
            # Search-time leaf kernels need ||center|| per node (the cone
            # bound's query decomposition); computing the norms once here
            # removes a np.linalg.norm call from every leaf visit.
            center_norms=np.linalg.norm(centers_arr, axis=1),
        )

    def payload_arrays(self):
        """Arrays counted towards the index size."""
        return (
            self.centers,
            self.radii,
            self.start,
            self.end,
            self.left_child,
            self.right_child,
            self.perm,
            self.center_norms,
        )


class NodeView:
    """Read-only object view over one node of a :class:`TreeArrays` tree.

    Provided for tests, documentation, and debugging; the search code works
    directly on the flat arrays.
    """

    def __init__(self, tree: TreeArrays, node_id: int, points: Optional[np.ndarray] = None):
        self._tree = tree
        self.node_id = int(node_id)
        self._points = points

    @property
    def center(self) -> np.ndarray:
        return self._tree.centers[self.node_id]

    @property
    def radius(self) -> float:
        return float(self._tree.radii[self.node_id])

    @property
    def is_leaf(self) -> bool:
        return self._tree.is_leaf(self.node_id)

    @property
    def size(self) -> int:
        return self._tree.node_size(self.node_id)

    @property
    def point_indices(self) -> np.ndarray:
        return self._tree.node_point_indices(self.node_id)

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            raise ValueError("NodeView was created without the point matrix")
        return self._points[self.point_indices]

    @property
    def left(self) -> Optional["NodeView"]:
        child = self._tree.left_child[self.node_id]
        if child == NO_CHILD:
            return None
        return NodeView(self._tree, child, self._points)

    @property
    def right(self) -> Optional["NodeView"]:
        child = self._tree.right_child[self.node_id]
        if child == NO_CHILD:
            return None
        return NodeView(self._tree, child, self._points)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "leaf" if self.is_leaf else "internal"
        return (
            f"NodeView(id={self.node_id}, kind={kind}, size={self.size}, "
            f"radius={self.radius:.4f})"
        )


def build_tree(
    points: np.ndarray,
    leaf_size: int,
    *,
    rng=None,
    centers_from_children: bool = False,
    split_fn=None,
) -> TreeArrays:
    """Build the ball-tree structure over ``points`` (Algorithm 1 / 4).

    Parameters
    ----------
    points:
        Augmented data matrix of shape ``(n, d)``; read, never written.
    leaf_size:
        Maximum number of points per leaf (``N0`` in the paper).
    rng:
        Seed or generator controlling the seed-grow split.
    centers_from_children:
        If True, internal-node centers are computed from their children's
        centers via the linear property of the centroid (Lemma 1, used by
        BC-Tree construction); otherwise directly as the mean of the node's
        points.  Both give the same centers up to floating-point error.
    split_fn:
        Node-splitting rule ``(node_points, rng) -> (left_rows, right_rows)``.
        Defaults to the paper's seed-grow rule (Algorithm 2); the RP-Tree
        baseline passes a random-projection split instead.  Both halves must
        be non-empty.  ``node_points`` is a view into the builder's
        working copy, which the rule must not write.

    Returns
    -------
    TreeArrays
        The flat tree.  Leaf points occupy contiguous ranges of ``perm`` in
        the order produced by the split (BC-Tree re-sorts them afterwards).

    Notes
    -----
    The build holds two ``(n, d)`` float64 matrices: a working copy whose
    rows every split reorders in place with ``perm``, so node ``[start,
    end)`` reads the view ``work[start:end]``, and a scratch matrix for the
    reorders and the distance passes (:func:`repro.core.splits.row_distances`).
    A view has the shape and strides of the gather ``points[perm[start:end]]``
    and each pass makes the row-wise reduction of ``np.linalg.norm(rows - p,
    axis=1)`` in the same order, so the tree's bytes equal those of that
    formulation (``tests/reference_builder.py``, the tests' reference).
    """
    rng = ensure_rng(rng)
    n, d = points.shape
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")

    work = np.array(points, dtype=np.float64, order="C")
    scratch = np.empty_like(work)
    if split_fn is None:
        def split_fn(rows, rng):
            return seed_grow_split(rows, rng, scratch[: rows.shape[0]])

    def radius(rows: np.ndarray, center: np.ndarray) -> float:
        return float(np.max(row_distances(rows, center, scratch[: rows.shape[0]])))

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
    # Each stack entry is (node_id, phase); phase 0 = expand, phase 1 = finish
    # (compute the internal center from the children when Lemma 1 is used).
    stack = [(root, 0)]
    while stack:
        node_id, phase = stack.pop()
        start, end = starts[node_id], ends[node_id]
        size = end - start
        rows = work[start:end]
        if phase == 1:
            left_id, right_id = lefts[node_id], rights[node_id]
            left_size = ends[left_id] - starts[left_id]
            right_size = ends[right_id] - starts[right_id]
            centers[node_id] = (
                centers[left_id] * left_size + centers[right_id] * right_size
            ) / size
            radii[node_id] = radius(rows, centers[node_id])
            continue

        if size <= leaf_size or not centers_from_children:
            centers[node_id] = rows.mean(axis=0)
            radii[node_id] = radius(rows, centers[node_id])
            if size <= leaf_size:
                continue

        left_rows, right_rows = split_fn(rows, rng)
        order = np.concatenate([left_rows, right_rows])
        perm[start:end] = perm[start:end][order]
        # mode="clip": the default "raise" buffers ``out`` in a third copy.
        rows[...] = np.take(rows, order, axis=0, out=scratch[:size], mode="clip")
        mid = start + left_rows.size

        left_id = allocate_node(start, mid)
        right_id = allocate_node(mid, end)
        lefts[node_id] = left_id
        rights[node_id] = right_id

        if centers_from_children:
            # Finish this node only after both children have been built.
            stack.append((node_id, 1))
        stack.append((right_id, 0))
        stack.append((left_id, 0))

    return TreeArrays.from_node_lists(
        centers, radii, starts, ends, lefts, rights, perm
    )
