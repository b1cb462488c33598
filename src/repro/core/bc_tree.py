"""BC-Tree index for P2HNNS (paper Section IV, Algorithms 4-5).

BC-Tree is a Ball-Tree whose leaves additionally store, per point, the
*ball* and *cone* structures relative to the leaf center ``c``:

* ``r_x = ||x - c||`` — used by the point-level ball bound (Corollary 1),
  with leaf points sorted by descending ``r_x`` so the bound prunes the
  remaining points in a batch;
* ``||x|| cos(phi_x)`` and ``||x|| sin(phi_x)`` — used by the tighter
  point-level cone bound (Theorem 3).

Internal-node centers are computed from the children's centers via the
linear property of the centroid (Lemma 1); per-node center norms are
precomputed at build time because the cone bound's query decomposition
needs ``||c||`` on every leaf visit.

Search runs on the block traversal kernel (:mod:`repro.engine.block`),
which evaluates all center inner products of a query in one vectorized pass
and runs the BC leaf scan (Algorithm 5's ``ScanWithPruning``) — whole leaf
at the entry threshold by default, point by point with
``scan_mode="sequential"``.  ``search`` is a one-row block and
``batch_search`` runs the same descent on every row of a worker's chunk,
with the same results and work counters.  The kernel
reports the paper's logical inner-product cost: with Lemma 2's
collaborative strategy (Theorem 5) one inner product per expanded node,
without it two — which is what the ``collaborative_ip`` flag controls.

The ablation variants of Figure 8 are exposed through the
``use_ball_bound`` / ``use_cone_bound`` constructor flags:

=================  ==========================  ==========================
Paper name          ``use_ball_bound``           ``use_cone_bound``
=================  ==========================  ==========================
BC-Tree             True                         True
BC-Tree-wo-B        False                        True
BC-Tree-wo-C        True                         False
BC-Tree-wo-BC       False                        False
=================  ==========================  ==========================
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.ball_tree import BallTree
from repro.core.policies import BranchPreference
from repro.core.tree_base import NO_CHILD, build_tree
from repro.engine.traversal import TraversalEngine


class BCTree(BallTree):
    """BC-Tree index for point-to-hyperplane nearest neighbor search.

    Parameters
    ----------
    leaf_size:
        Maximum number of points per leaf (``N0``; default 100).
    branch_preference:
        Child-visit ordering (center preference by default).
    use_ball_bound, use_cone_bound:
        Enable / disable the two point-level lower bounds (Figure 8
        ablation); both enabled by default.
    collaborative_ip:
        Account center inner products with Lemma 2's O(1) derivation of the
        right child's inner product (Theorem 5); enabled by default.  The
        engine computes all inner products in one vectorized pass either
        way, so the flag only changes the work counters, never the results.
    scan_mode:
        ``"vectorized"`` (default) evaluates the point-level bounds for the
        whole leaf in NumPy batch operations using the pruning threshold at
        leaf entry; ``"sequential"`` follows Algorithm 5 point by point and
        tightens the threshold inside the leaf.  Both return identical
        results; the sequential mode verifies slightly fewer candidates at a
        much higher interpreter cost, and exists for fidelity tests.
    random_state, augment, normalize_queries:
        See :class:`~repro.core.ball_tree.BallTree`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import BCTree
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(500, 16))
    >>> query = rng.normal(size=17)
    >>> tree = BCTree(leaf_size=32, random_state=0).fit(data)
    >>> result = tree.search(query, k=5)
    >>> len(result)
    5
    """

    def __init__(
        self,
        leaf_size: int = 100,
        *,
        branch_preference=BranchPreference.CENTER,
        use_ball_bound: bool = True,
        use_cone_bound: bool = True,
        collaborative_ip: bool = True,
        scan_mode: str = "vectorized",
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
        if scan_mode not in ("vectorized", "sequential"):
            raise ValueError(
                f"scan_mode must be 'vectorized' or 'sequential', got {scan_mode!r}"
            )
        self.use_ball_bound = bool(use_ball_bound)
        self.use_cone_bound = bool(use_cone_bound)
        self.collaborative_ip = bool(collaborative_ip)
        self.scan_mode = scan_mode
        # Per-point leaf structures, aligned with the tree's ``perm`` order.
        self.point_radius: Optional[np.ndarray] = None
        self.point_cos: Optional[np.ndarray] = None
        self.point_sin: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- build

    def _build(self, points: np.ndarray) -> None:
        """Algorithm 4: Ball-Tree construction plus leaf ball/cone structures."""
        self.tree = build_tree(
            points,
            self.leaf_size,
            rng=self.random_state,
            centers_from_children=True,
        )
        perm = self.tree.perm
        self._build_leaf_structures(lambda start, end: points[perm[start:end]])

    def _build_leaf_structures(self, read_leaf, write_leaf=None) -> None:
        """Algorithm 4 lines 7-11, shared by ``fit`` and ``fit_chunked``.

        ``read_leaf(start, end)`` returns a leaf's rows in ``perm`` order.
        Each leaf is re-sorted by descending ``r_x``, ``perm`` follows, and
        ``write_leaf(start, rows)`` (when given) receives the sorted rows.
        """
        tree = self.tree
        n = tree.perm.shape[0]
        self.point_radius = np.zeros(n, dtype=np.float64)
        self.point_cos = np.zeros(n, dtype=np.float64)
        self.point_sin = np.zeros(n, dtype=np.float64)

        for node in np.flatnonzero(tree.left_child == NO_CHILD):
            start, end = int(tree.start[node]), int(tree.end[node])
            leaf_points = read_leaf(start, end)
            center = tree.centers[node]
            center_norm = float(tree.center_norms[node])

            radii = np.linalg.norm(leaf_points - center, axis=1)
            # Sort leaf points by descending r_x (Algorithm 4 line 9) so the
            # point-level ball bound prunes the tail of the leaf in a batch.
            order = np.argsort(-radii, kind="stable")
            leaf_points = leaf_points[order]
            tree.perm[start:end] = tree.perm[start:end][order]
            if write_leaf is not None:
                write_leaf(start, leaf_points)

            norms = np.linalg.norm(leaf_points, axis=1)
            if center_norm > 0.0:
                x_cos = (leaf_points @ center) / center_norm
            else:
                x_cos = np.zeros_like(norms)
            x_sin = np.sqrt(np.maximum(norms * norms - x_cos * x_cos, 0.0))

            self.point_radius[start:end] = radii[order]
            self.point_cos[start:end] = x_cos
            self.point_sin[start:end] = x_sin

    def _payload_arrays(self) -> Sequence[np.ndarray]:
        arrays = list(super()._payload_arrays())
        for extra in (self.point_radius, self.point_cos, self.point_sin):
            if extra is not None:
                arrays.append(extra)
        return arrays

    # ---------------------------------------------------------------- search

    def _make_engine(self) -> TraversalEngine:
        return TraversalEngine.for_bc_tree(self)

    def _engine_signature(self) -> tuple:
        return super()._engine_signature() + (
            self.use_ball_bound,
            self.use_cone_bound,
            self.collaborative_ip,
            self.scan_mode,
        )
