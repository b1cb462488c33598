"""Ball-Tree index for P2HNNS (paper Section III, Algorithms 1-3).

The index recursively partitions the augmented data with the seed-grow rule
and stores, per node, the centroid and the radius of the enclosing ball.
Search is a depth-first branch-and-bound (Algorithm 3): a node is pruned
whenever its node-level ball bound (Theorem 2)

    max(|<q, N.c>| - ||q|| * N.r, 0)

is at least the current k-th best distance ``lambda``; leaves are scanned
exhaustively.  The two children of an expanded internal node are visited in
the order given by the *branch preference* (center preference by default;
see :class:`~repro.core.policies.BranchPreference` and Figure 7).

Approximate search is supported through a *candidate budget*: traversal
stops once a given number (or fraction) of points has been verified, which
is how the paper trades recall for query time in Figures 5-6.

Search runs on the block traversal kernel (:mod:`repro.engine.block`) over
the index's :class:`~repro.engine.traversal.TraversalEngine`: ``search`` is
a one-row block and ``batch_search`` hands each worker a chunk, so both run
the same loop.  This class owns construction and the option handling.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.index_base import LeafStoredPointsMixin, P2HIndex
from repro.core.policies import BranchPreference
from repro.core.results import SearchResult
from repro.core.tree_base import NodeView, TreeArrays, build_tree
from repro.engine.budget import resolve_budget
from repro.engine.traversal import TraversalEngine
from repro.utils.validation import check_positive_int


class BallTree(LeafStoredPointsMixin, P2HIndex):
    """Ball-Tree index for point-to-hyperplane nearest neighbor search.

    Parameters
    ----------
    leaf_size:
        Maximum number of points per leaf (``N0`` in the paper; default 100).
    branch_preference:
        Default child-visit ordering; ``"center"`` (paper default) or
        ``"lower_bound"``.
    random_state:
        Seed or generator for the seed-grow split.
    augment, normalize_queries, storage:
        See :class:`~repro.core.index_base.P2HIndex`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import BallTree
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(500, 16))
    >>> query = rng.normal(size=17)
    >>> tree = BallTree(leaf_size=32, random_state=0).fit(data)
    >>> result = tree.search(query, k=5)
    >>> len(result)
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
            augment=augment,
            normalize_queries=normalize_queries,
            storage=storage,
        )
        self.leaf_size = check_positive_int(leaf_size, name="leaf_size")
        self.branch_preference = BranchPreference.coerce(branch_preference)
        self.random_state = random_state
        self.tree: Optional[TreeArrays] = None

    # ----------------------------------------------------------------- build

    def _build(self, points: np.ndarray) -> None:
        self.tree = build_tree(
            points,
            self.leaf_size,
            rng=self.random_state,
            centers_from_children=False,
        )

    @property
    def root(self) -> NodeView:
        """Read-only view of the root node (for inspection and tests).

        Materializes the un-permuted point matrix (see
        :attr:`~repro.core.index_base.P2HIndex.points`); an inspection
        path, not a query path.
        """
        self._check_fitted()
        return NodeView(self.tree, 0, self.points)

    @property
    def num_nodes(self) -> int:
        self._check_fitted()
        return self.tree.num_nodes

    @property
    def num_leaves(self) -> int:
        self._check_fitted()
        return self.tree.num_leaves

    def depth(self) -> int:
        """Tree height (root = 1)."""
        self._check_fitted()
        return self.tree.depth()

    def _payload_arrays(self) -> Sequence[np.ndarray]:
        if self.tree is None:
            return ()
        return self.tree.payload_arrays()

    # ---------------------------------------------------------------- search

    def _resolve_budget(self, candidate_fraction, max_candidates) -> float:
        """Translate the approximate-search knobs into a candidate budget."""
        return resolve_budget(candidate_fraction, max_candidates, self.num_points)

    def _make_engine(self) -> TraversalEngine:
        return TraversalEngine.for_ball_tree(self)

    def _engine_signature(self) -> tuple:
        # The engine bakes in the default branch preference.
        return (self.branch_preference,)

    def _block_search(
        self,
        matrix: np.ndarray,
        k: int,
        *,
        candidate_fraction: Optional[float] = None,
        max_candidates: Optional[int] = None,
        branch_preference=None,
        profile: bool = False,
        exact: bool = True,
        dtype: Optional[str] = None,
    ) -> List[SearchResult]:
        """Answer the already-normalized query block ``matrix``
        (Algorithm 3 generalized to top-k; one row for ``search``).

        The option handling ``search`` and ``batch_search`` share: budget
        resolution, the ``exact``/``dtype``/``profile`` checks, and the
        hand-off to the fast tier.  With ``exact=True`` (the default) the
        block runs on the exact block traversal kernel
        (:mod:`repro.engine.block`); with ``exact=False`` on the
        approximate fast-mode kernel (:mod:`repro.engine.fast`) in the
        requested storage ``dtype`` (float32 by default).
        """
        budget = self._resolve_budget(candidate_fraction, max_candidates)
        if not exact:
            if profile:
                raise ValueError(
                    "profile=True requires the exact path (exact=True)"
                )
            # repro: allow[REP102] exact=False hand-off to the fast tier;
            # the literal names its default storage dtype.
            return self._engine().fast_kernel(dtype or "float32").search_block(
                matrix, k, preference=branch_preference, budget=budget
            )
        if dtype is not None:
            raise ValueError(
                "dtype selects the fast mode's storage precision and "
                "requires exact=False"
            )
        return self._engine().block_kernel().search_block(
            matrix, k, preference=branch_preference, budget=budget,
            profile=profile,
        )
