"""Tree geometry and node values shared by every tree kernel.

Each tree index (Ball-Tree, BC-Tree, RP-Tree, KD-Tree) is searched by one
traversal, the block kernel in :mod:`repro.engine.block`: ``search`` runs
it on a one-row block, ``batch_search`` on worker-sized blocks, and the
paper's depth-first branch-and-bound (Algorithms 3 and 5), best-first
order, BC-Tree's sequential leaf scan and ``profile=True`` are all modes of
that one loop.  :class:`TraversalEngine` is what the kernels walk:

* the flat tree geometry of one fitted index — per-node arrays mirrored
  as plain Python lists (the interpreter-bound scalar descent avoids NumPy
  scalar boxing), node centers and radii or KD boxes, the leaf-ordered
  point copy, and BC-Tree's per-point leaf structures;
* the node-value rule: :meth:`TraversalEngine._lazy_node_values` (one
  ``centers[node] @ q`` ddot per touched node, for tight budgets) and
  :meth:`TraversalEngine._box_bounds` are the single source of node
  values, because ddot and GEMV differ in the last ulp on this BLAS and
  any second construction site could drift;
* the per-engine caches of the exact block kernel and the fast tier
  (:meth:`~TraversalEngine.block_kernel`,
  :meth:`~TraversalEngine.fast_kernel`, :meth:`~TraversalEngine.fast_arrays`).

The ``center_inner_products`` counter reports the paper's *logical* cost:
one inner product for the root plus, per expanded node, one (with Lemma
2's collaborative derivation) or two (without), whatever the kernels
batch internally, so the counters still reproduce Theorem 5's
measurements.

This module is on the **exact path**: ``repro check`` statically enforces
that it never imports the fast tier at module level (rule REP101) and
never introduces a float32 dtype outside the opt-in fast-tier entry points
(REP102) — the exact traversal computes in float64 end to end, and is
validated against the linear scan (see README, "Correctness tooling").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.policies import BranchPreference


class _LazyNodeValues:
    """List-like per-node values computed on first access.

    Tight candidate budgets visit only a sliver of the tree, so paying the
    full vectorized per-node precompute would dominate the query; this
    wrapper gives the kernel's scalar descent the same ``values[node]``
    interface while computing (and caching) each node's value on demand.
    """

    __slots__ = ("_values", "_fn")

    def __init__(self, size: int, fn) -> None:
        self._values = [None] * size
        self._fn = fn

    def __getitem__(self, node):
        value = self._values[node]
        if value is None:
            value = self._values[node] = self._fn(node)
        return value


@dataclass
class FastArrays:
    """Reduced-precision copies of the tree geometry for the fast mode.

    Built lazily (and cached per dtype) by
    :meth:`TraversalEngine.fast_arrays`; consumed by
    :class:`repro.engine.fast.FastTreeKernel`.  Center trees populate
    ``centers``/``radii``; KD trees populate ``lower``/``upper``.  Like the
    engine's leaf-ordered float64 copy, these are derived runtime caches:
    excluded from ``index_size_bytes`` and rebuilt on demand after
    unpickling.
    """

    dtype: np.dtype
    points_leaf: np.ndarray
    centers: Optional[np.ndarray] = None
    radii: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None


@dataclass
class LeafPruningData:
    """Per-point leaf structures used by BC-Tree's point-level bounds."""

    point_radius: np.ndarray    # r_x, sorted descending within each leaf
    point_cos: np.ndarray       # ||x|| cos(phi_x)
    point_sin: np.ndarray       # ||x|| sin(phi_x)
    center_norms: np.ndarray    # per-node ||c||, precomputed at build time
    use_ball_bound: bool
    use_cone_bound: bool


def _leaf_envelopes(leaf_data: LeafPruningData, start, end, left_child):
    """Per-node ``(last_radius, cos_max, cos_min, sin_min)`` lists.

    For every non-empty leaf: the radius of its last point (radii are
    sorted descending, so that point has the leaf's largest ball bound),
    the extremes of ``point_cos`` and the smallest ``point_sin``, which
    :func:`~repro.core.bounds.cone_envelope_may_prune` tests.  Internal
    nodes hold 0.0.  Derived at engine build, so never pickled.
    """
    num_nodes = len(start)
    is_leaf = (left_child < 0) & (end > start)
    leaves = np.flatnonzero(is_leaf)
    leaves = leaves[np.argsort(start[leaves], kind="stable")]
    starts = start[leaves]
    envelope = np.zeros((4, num_nodes))
    if leaves.shape[0]:
        # leaves tile the leaf-ordered arrays, so each reduceat segment
        # [start, next start) is exactly one leaf
        envelope[0, leaves] = leaf_data.point_radius[end[leaves] - 1]
        envelope[1, leaves] = np.maximum.reduceat(leaf_data.point_cos, starts)
        envelope[2, leaves] = np.minimum.reduceat(leaf_data.point_cos, starts)
        envelope[3, leaves] = np.minimum.reduceat(leaf_data.point_sin, starts)
    return tuple(row.tolist() for row in envelope)


class TraversalEngine:
    """The flat tree one fitted index's kernels walk.

    The engine is built once per fitted index (and rebuilt on re-fit); it
    converts the per-node integer/scalar arrays to plain Python lists so the
    interpreter-bound scalar descent avoids NumPy scalar boxing, and keeps
    the vector payloads (centers, points, leaf structures) as arrays for
    the vectorized per-query preparation and leaf kernels.

    Memory: the engine reads the index's *leaf-ordered* point copy (every
    leaf's points occupy one contiguous block) so leaf verification is a
    GEMV on a slice instead of a gather.  The copy is owned by the index's
    :class:`~repro.storage.base.ArrayStore` — since the storage layer it is
    the only resident point array a fitted tree index holds (the
    un-permuted matrix is rebuilt lazily by ``index.points``), and under
    the mmap backend it is not resident at all.

    Use the ``for_ball_tree`` / ``for_bc_tree`` / ``for_kd_tree`` factories
    rather than the constructor.
    """

    def __init__(
        self,
        *,
        points_leaf: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        left_child: np.ndarray,
        right_child: np.ndarray,
        perm: np.ndarray,
        centers: Optional[np.ndarray] = None,
        radii: Optional[np.ndarray] = None,
        lower: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
        leaf_data: Optional[LeafPruningData] = None,
        sequential_leaf_scan: bool = False,
        collaborative_ip: bool = False,
        default_preference: BranchPreference = BranchPreference.CENTER,
        store=None,
    ) -> None:
        self._perm = perm
        # Leaf-ordered data: every leaf's points occupy one contiguous
        # block, so leaf verification is a GEMV on a slice with no gather
        # copy (the layout scikit-learn's neighbor trees use).  Since the
        # storage layer this is the index's *only* point copy — owned by
        # the index's ArrayStore (possibly a read-only memmap), not by the
        # engine.
        self._points_leaf = points_leaf
        self._store = store
        self._start = start.tolist()
        self._end = end.tolist()
        self._left = left_child.tolist()
        self._right = right_child.tolist()
        self._centers = centers
        self._radii = radii
        self._radii_list = None if radii is None else radii.tolist()
        self._lower = lower
        self._upper = upper
        self._leaf = leaf_data
        self._sequential_leaf_scan = bool(sequential_leaf_scan)
        self.collaborative_ip = bool(collaborative_ip)
        self.default_preference = BranchPreference.coerce(default_preference)
        if leaf_data is not None:
            self._center_norms = leaf_data.center_norms.tolist()
            # Sign of x_cos, fixed at build time, feeds the cone bound's
            # case analysis without recomputing the comparison per leaf.
            self._point_cos_pos = leaf_data.point_cos > 0.0
            self._point_radius = leaf_data.point_radius
            self._point_cos = leaf_data.point_cos
            self._point_sin = leaf_data.point_sin
            self._use_ball_bound = leaf_data.use_ball_bound
            self._use_cone_bound = leaf_data.use_cone_bound
            self._leaf_envelope = _leaf_envelopes(
                leaf_data, start, end, left_child
            )
        self.num_nodes = len(self._start)
        self._block_kernel = None
        self._fast_arrays = {}
        self._fast_kernels = {}

    # ------------------------------------------------------------- factories

    @classmethod
    def for_ball_tree(cls, index) -> "TraversalEngine":
        """Engine over a fitted :class:`~repro.core.ball_tree.BallTree`."""
        tree = index.tree
        return cls(
            points_leaf=index._leaf_points(),
            start=tree.start,
            end=tree.end,
            left_child=tree.left_child,
            right_child=tree.right_child,
            perm=tree.perm,
            centers=tree.centers,
            radii=tree.radii,
            collaborative_ip=False,
            default_preference=index.branch_preference,
            store=index._store,
        )

    @classmethod
    def for_bc_tree(cls, index) -> "TraversalEngine":
        """Engine over a fitted :class:`~repro.core.bc_tree.BCTree`."""
        tree = index.tree
        return cls(
            points_leaf=index._leaf_points(),
            start=tree.start,
            end=tree.end,
            left_child=tree.left_child,
            right_child=tree.right_child,
            perm=tree.perm,
            centers=tree.centers,
            radii=tree.radii,
            store=index._store,
            leaf_data=LeafPruningData(
                point_radius=index.point_radius,
                point_cos=index.point_cos,
                point_sin=index.point_sin,
                center_norms=tree.center_norms,
                use_ball_bound=index.use_ball_bound,
                use_cone_bound=index.use_cone_bound,
            ),
            sequential_leaf_scan=(index.scan_mode == "sequential"),
            collaborative_ip=index.collaborative_ip,
            default_preference=index.branch_preference,
        )

    @classmethod
    def for_kd_tree(cls, index) -> "TraversalEngine":
        """Engine over a fitted :class:`~repro.core.kd_tree.KDTree`."""
        tree = index.tree
        return cls(
            points_leaf=index._leaf_points(),
            start=tree.start,
            end=tree.end,
            left_child=tree.left_child,
            right_child=tree.right_child,
            perm=tree.perm,
            lower=tree.lower,
            upper=tree.upper,
            store=index._store,
        )

    # ------------------------------------------------------------------- API

    def block_kernel(self):
        """The cached exact block kernel over this engine.

        The one exact traversal: answers a query block of any size (one
        row for ``search``) with a shared tree walk whose results *and*
        work counters do not depend on the block — see
        :mod:`repro.engine.block` for the contract and its modes.
        """
        from repro.engine.block import BlockTraversalKernel

        kernel = self._block_kernel
        if kernel is None:
            kernel = self._block_kernel = BlockTraversalKernel(self)
        return kernel

    # repro: allow[REP102] default names the fast tier's storage dtype; the
    # exact search path never calls this entry point.
    def fast_arrays(self, dtype="float32") -> FastArrays:
        """Reduced-precision tree geometry, built once per storage dtype.

        The fast mode's working set: a leaf-ordered point copy plus the
        center/radius (or KD box) arrays, all cast to ``dtype``.  Cached on
        the engine so a warm worker process (or a long-lived
        :class:`~repro.api.Searcher`) pays the cast once per fitted index.
        """
        dtype = np.dtype(dtype)
        arrays = self._fast_arrays.get(dtype.str)
        if arrays is None:
            if self._store is not None and "points_leaf" in self._store:
                # Route the cast through the index's store, so an mmap
                # backend keeps the reduced-precision copy on disk rather
                # than in the process heap.
                points_leaf = self._store.derive("points_leaf", dtype)
            else:
                points_leaf = np.ascontiguousarray(
                    self._points_leaf, dtype=dtype
                )
            arrays = FastArrays(
                dtype=dtype,
                points_leaf=points_leaf,
                centers=(
                    None
                    if self._centers is None
                    else np.ascontiguousarray(self._centers, dtype=dtype)
                ),
                radii=(
                    None
                    if self._radii is None
                    else np.ascontiguousarray(self._radii, dtype=dtype)
                ),
                lower=(
                    None
                    if self._lower is None
                    else np.ascontiguousarray(self._lower, dtype=dtype)
                ),
                upper=(
                    None
                    if self._upper is None
                    else np.ascontiguousarray(self._upper, dtype=dtype)
                ),
            )
            self._fast_arrays[dtype.str] = arrays
        return arrays

    # repro: allow[REP102] default names the fast tier's storage dtype; the
    # exact search path never calls this entry point.
    def fast_kernel(self, dtype="float32"):
        """The cached approximate fast-mode kernel over this engine.

        Unlike :meth:`block_kernel`, the fast kernel is **not** bound by
        the bit-identity contract: it computes in the reduced-precision
        storage dtype with cross-query GEMMs — see
        :mod:`repro.engine.fast` for the approximation contract.
        """
        # repro: allow[REP101] lazy import inside the opt-in fast-mode entry
        # point; no exact-path code reaches it.
        from repro.engine.fast import FastTreeKernel

        key = np.dtype(dtype).str
        kernel = self._fast_kernels.get(key)
        if kernel is None:
            kernel = self._fast_kernels[key] = FastTreeKernel(self, dtype)
        return kernel

    def _lazy_node_values(self, query, query_norm, preference):
        """The ``(ips, bounds, keys)`` lazy-value triple for one query.

        The tight-budget strategy (``budget < num_nodes``): one
        ``centers[node] @ query`` ddot per touched node, python-float
        bound/key arithmetic on top.  This is the single construction site
        — the block kernel's budgeted prologue (:mod:`repro.engine.block`)
        calls it for every row, because the ddot here and the eager GEMV
        rows differ in the last ulp on this BLAS and a second construction
        site could drift.
        """
        centers = self._centers
        radii = self._radii_list

        def node_ip(node):
            return float(centers[node] @ query)

        ips = _LazyNodeValues(self.num_nodes, node_ip)

        def node_bound(node):
            ip = ips[node]
            bound = (ip if ip >= 0.0 else -ip) - query_norm * radii[node]
            return bound if bound > 0.0 else 0.0

        bounds = _LazyNodeValues(self.num_nodes, node_bound)
        if preference is BranchPreference.CENTER:
            keys = _LazyNodeValues(
                self.num_nodes, lambda node: abs(ips[node])
            )
        else:
            keys = bounds
        return ips, bounds, keys

    # ------------------------------------------------------------- internals

    def _box_bounds(self, query: np.ndarray) -> np.ndarray:
        """Vectorized KD box bound over every node (one pass, no Python loop)."""
        prod_lower = self._lower * query
        prod_upper = self._upper * query
        lo = np.minimum(prod_lower, prod_upper).sum(axis=1)
        hi = np.maximum(prod_lower, prod_upper).sum(axis=1)
        straddles = (lo <= 0.0) & (hi >= 0.0)
        return np.where(straddles, 0.0, np.minimum(np.abs(lo), np.abs(hi)))


