"""KD-Tree baseline with an axis-aligned bounding-box bound for P2HNNS.

Section III-A of the paper argues that bounding-box trees (KD-Tree, R-Tree)
are less attractive for the P2H distance because the box bound has to reason
about the sign of the inner product per dimension.  The bound itself is
nevertheless well defined — the inner product over a box ranges over an
interval computable in O(d) (see :func:`repro.core.bounds.kd_box_bound`) —
so we implement the KD-Tree as an additional comparison point and ablation
for the "why Ball-Tree?" design discussion.

The tree uses the classic median split on the widest dimension and the same
search API as the other indexes (branch-and-bound with a candidate budget).
Search runs on the block traversal kernel (:mod:`repro.engine.block`; a
one-row block for ``search``), children ordered by the smaller box bound,
with the box bound of every node evaluated in one vectorized pass per
query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.index_base import LeafStoredPointsMixin, P2HIndex
from repro.core.results import SearchResult
from repro.engine.budget import resolve_budget
from repro.engine.traversal import TraversalEngine
from repro.utils.validation import check_positive_int

NO_CHILD = -1


@dataclass
class _KDArrays:
    """Flat representation of the KD-Tree."""

    lower: np.ndarray        # (num_nodes, d) box lower corners
    upper: np.ndarray        # (num_nodes, d) box upper corners
    start: np.ndarray
    end: np.ndarray
    left_child: np.ndarray
    right_child: np.ndarray
    perm: np.ndarray

    def payload_arrays(self):
        return (
            self.lower,
            self.upper,
            self.start,
            self.end,
            self.left_child,
            self.right_child,
            self.perm,
        )


def build_kd_tree(points: np.ndarray, leaf_size: int) -> _KDArrays:
    """Build the KD-Tree structure over augmented ``points``.

    Median split on the widest dimension; a node whose points are all
    identical stays a leaf regardless of size.  Exposed as a function so
    the chunked build path (:mod:`repro.core.chunked`) can graft
    in-budget subtrees.
    """
    n, d = points.shape
    perm = np.arange(n, dtype=np.int64)
    lowers: List[np.ndarray] = []
    uppers: List[np.ndarray] = []
    starts: List[int] = []
    ends: List[int] = []
    lefts: List[int] = []
    rights: List[int] = []

    def allocate(start: int, end: int) -> int:
        node_id = len(starts)
        lowers.append(np.zeros(d))
        uppers.append(np.zeros(d))
        starts.append(start)
        ends.append(end)
        lefts.append(NO_CHILD)
        rights.append(NO_CHILD)
        return node_id

    root = allocate(0, n)
    stack = [root]
    while stack:
        node = stack.pop()
        start, end = starts[node], ends[node]
        node_points = points[perm[start:end]]
        lowers[node] = node_points.min(axis=0)
        uppers[node] = node_points.max(axis=0)
        size = end - start
        if size <= leaf_size:
            continue
        spreads = uppers[node] - lowers[node]
        axis = int(np.argmax(spreads))
        if spreads[axis] <= 0.0:
            continue  # all points identical: keep as a leaf
        values = node_points[:, axis]
        order = np.argsort(values, kind="stable")
        perm[start:end] = perm[start:end][order]
        mid = start + size // 2
        left = allocate(start, mid)
        right = allocate(mid, end)
        lefts[node] = left
        rights[node] = right
        stack.append(right)
        stack.append(left)

    return _KDArrays(
        lower=np.asarray(lowers),
        upper=np.asarray(uppers),
        start=np.asarray(starts, dtype=np.int64),
        end=np.asarray(ends, dtype=np.int64),
        left_child=np.asarray(lefts, dtype=np.int64),
        right_child=np.asarray(rights, dtype=np.int64),
        perm=perm,
    )


class KDTree(LeafStoredPointsMixin, P2HIndex):
    """KD-Tree with a box interval bound on ``|<x, q>|``.

    Parameters
    ----------
    leaf_size:
        Maximum number of points per leaf.
    augment, normalize_queries, storage:
        See :class:`~repro.core.index_base.P2HIndex`.
    """

    def __init__(
        self,
        leaf_size: int = 100,
        *,
        augment: bool = True,
        normalize_queries: bool = True,
        storage=None,
    ) -> None:
        super().__init__(
            augment=augment,
            normalize_queries=normalize_queries,
            storage=storage,
        )
        self.leaf_size = check_positive_int(leaf_size, name="leaf_size")
        self.tree: Optional[_KDArrays] = None

    # ----------------------------------------------------------------- build

    def _build(self, points: np.ndarray) -> None:
        self.tree = build_kd_tree(points, self.leaf_size)

    def _payload_arrays(self) -> Sequence[np.ndarray]:
        if self.tree is None:
            return ()
        return self.tree.payload_arrays()

    @property
    def num_nodes(self) -> int:
        self._check_fitted()
        return int(self.tree.start.shape[0])

    # ---------------------------------------------------------------- search

    def _make_engine(self) -> TraversalEngine:
        return TraversalEngine.for_kd_tree(self)

    def _block_search(
        self,
        matrix: np.ndarray,
        k: int,
        *,
        candidate_fraction: Optional[float] = None,
        max_candidates: Optional[int] = None,
        exact: bool = True,
        dtype: Optional[str] = None,
        **unknown,
    ) -> List[SearchResult]:
        """Answer the already-normalized query block ``matrix`` with the
        box-bound branch-and-bound (one row for ``search``).

        The option handling ``search`` and ``batch_search`` share: budget
        resolution, the ``exact``/``dtype`` checks, and the hand-off to the
        fast tier (:mod:`repro.engine.fast`) for ``exact=False``.  KD-Tree
        has no branch preference and no stage timers, so those options
        raise ``TypeError`` like any other unknown option.
        """
        if unknown:
            unexpected = ", ".join(sorted(unknown))
            raise TypeError(f"KDTree.search got unexpected options: {unexpected}")
        budget = resolve_budget(candidate_fraction, max_candidates, self.num_points)
        if not exact:
            # repro: allow[REP102] exact=False hand-off to the fast tier;
            # the literal names its default storage dtype.
            return self._engine().fast_kernel(dtype or "float32").search_block(
                matrix, k, budget=budget
            )
        if dtype is not None:
            raise ValueError(
                "dtype selects the fast mode's storage precision and "
                "requires exact=False"
            )
        return self._engine().block_kernel().search_block(
            matrix, k, budget=budget
        )
