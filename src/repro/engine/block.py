"""The tree traversal: one branch-and-bound descent per query row.

:class:`BlockTraversalKernel` is the one traversal behind every tree
index's ``search`` *and* ``batch_search``: ``search`` answers a one-row
block, ``batch_search`` hands each worker a contiguous chunk, and the
kernel answers every row of a block with the same descent from the root —
the paper's depth-first branch-and-bound (Algorithms 3 and 5) over plain
Python lists, followed by one leaf scan per leaf reached.

Row independence
----------------
A query's results *and* :class:`~repro.core.results.SearchStats` work
counters are bit-identical whichever block it is answered in — alone (as
``search`` runs it) or among any others — by construction: rows share
nothing but the fitted tree.  Each row computes its own node values, runs
its own descent with its own top-k heap and threshold, and no value
computed for one row feeds another.  No cross-query GEMM is involved:
BLAS GEMM results differ from the GEMV kernel in the last ulp (and are not
even batch-size independent — measured on this build of OpenBLAS), so
every center inner product comes from the row's ``centers @ q`` GEMV and
every leaf distance from the ``points_leaf[start:start + cut] @ q`` slice
GEMV.  The top-k heap is an inlined
:meth:`~repro.core.results.TopKCollector.offer_batch` (same heap, same
tie-breaking arrival order).  The correctness oracle is the linear scan:
the property suite checks every tree family against brute force.

Node values
-----------
Each row's prologue computes its query norm and then its node values in
one of three ways.  For ``budget >= num_nodes`` (exact search included)
the node inner products come from one eager ``centers @ q`` GEMV.  For
``budget < num_nodes`` they are evaluated *lazily* with one
``centers[node] @ q`` dot per touched node
(:meth:`~repro.engine.traversal.TraversalEngine._lazy_node_values`): a
tight budget visits only a sliver of the tree.  On this BLAS build the
ddot kernel is **not** bit-identical to the rows of the eager GEMV (nor is
a GEMV over a row slice identical to the same rows of the full GEMV —
both measured), so the strategy rule depends only on ``(budget, tree)``.
KD-Tree has no center inner products, and its vectorized box bound
(:meth:`~repro.engine.traversal.TraversalEngine._box_bounds`) serves
every budget.  The row's transient memory is O(num_nodes), whatever the
block size.

Candidate budgets
-----------------
The descent checks ``candidates_verified >= budget`` before every
frontier pop and stops the whole traversal at the first failure — the leaf
scan that crossed the budget is *not* truncated, so the counter may
overshoot mid-leaf.

Modes
-----
Ball-Tree, BC-Tree (with or without the ball/cone bounds and the
collaborative inner-product accounting — the counter is logical either
way), RP-Tree and KD-Tree, exact *and* under a candidate budget.  Three
modes change the descent or its leaf scan:

* ``profile=True`` — per-stage :func:`time.perf_counter` timers
  (``"lower_bounds"`` and ``"verification"``) in the whole-leaf scans
  (the point-by-point sequential scan records no stage time);
* BC-Tree's ``scan_mode="sequential"`` — Algorithm 5's point-by-point
  leaf scan, whose threshold tightens *inside* a leaf;
* ``order="best_first"`` — a min-heap frontier keyed by the node lower
  bound, used by :class:`~repro.core.best_first.BestFirstSearcher`.

Bounds that cannot prune
------------------------
At most leaves a query scans, BC-Tree's point-level bounds cannot prune a
single point, yet each pass over a leaf costs several NumPy calls.  Every
leaf therefore has an envelope, derived once by the engine: the radius of
its last point (radii are sorted descending, so that point has the
largest ball bound), the largest and smallest ``point_cos`` and the
smallest ``point_sin``.  Before the ball cut and the cone mask, a leaf
scan evaluates the same expressions on the envelope, with the same float
operations in the same order
(:func:`~repro.core.bounds.cone_envelope_may_prune` for the cone).  IEEE
rounding is monotone, so the envelope's value bounds every point's value
from the pruning side, ties included: when it cannot reach the threshold,
no point's can, the pass would have pruned nothing, and skipping it
leaves the cut, the mask, every result and every counter unchanged.
``tests/test_counter_snapshot.py`` pins the decisions.

This module is on the **exact path**: ``repro check`` statically enforces
that it never imports the fast tier (rule REP101) and never introduces a
float32 dtype (REP102).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import List

import numpy as np

from repro.core.bounds import (
    cone_envelope_may_prune,
    cone_prune_mask,
    point_ball_bound,
    point_cone_bound,
    query_angle_terms,
)
from repro.core.policies import BranchPreference
from repro.core.results import SearchResult, SearchStats

NO_CHILD = -1

_INF = float("inf")


class BlockTraversalKernel:
    """Branch-and-bound over one fitted :class:`TraversalEngine`, one
    descent per query row.

    Built (and cached) by :meth:`TraversalEngine.block_kernel`; holds only
    a reference to the engine, so it is cheap to construct and carries no
    per-query state.
    """

    def __init__(self, engine) -> None:
        self._engine = engine

    # ------------------------------------------------------------------- API

    def search_block(
        self,
        matrix: np.ndarray,
        k: int,
        *,
        preference=None,
        budget: float = _INF,
        order: str = "depth_first",
        profile: bool = False,
    ) -> List[SearchResult]:
        """Answer every row of the already-normalized query ``matrix``.

        Parameters
        ----------
        matrix:
            Normalized augmented queries, shape ``(B, d)`` (one row for a
            tree index's ``search``).
        k:
            Top-k size (already clamped to the index size).
        preference:
            Branch preference overriding the engine default (depth-first
            order only).
        budget:
            Per-query candidate budget from
            :func:`repro.engine.budget.resolve_budget` (``inf`` = exact
            search).  Each query stops traversing once its
            verified-candidate count reaches it.
        order:
            ``"depth_first"`` (stack frontier, children in branch-preference
            order) or ``"best_first"`` (min-heap frontier keyed by the node
            lower bound).
        profile:
            Record per-stage wall time (``"lower_bounds"`` and
            ``"verification"``) into every result's ``stats.stage_seconds``.
        """
        if order not in ("depth_first", "best_first"):
            raise ValueError(
                f"order must be 'depth_first' or 'best_first', got {order!r}"
            )
        preference = (
            self._engine.default_preference
            if preference is None
            else BranchPreference.coerce(preference)
        )
        if matrix.shape[0] == 0:
            return []
        return self._run_rows(
            matrix, k, preference, budget, order == "best_first", profile
        )

    # ------------------------------------------------------------ row loop

    def _run_rows(self, Q, k, preference, budget, best_first, profile):
        engine = self._engine
        centers = engine._centers
        radii = engine._radii
        left_child = engine._left
        right_child = engine._right
        start_arr = engine._start
        end_arr = engine._end
        perm = engine._perm
        points_leaf = engine._points_leaf
        pruned_scan = engine._leaf is not None
        if pruned_scan:
            use_ball = engine._use_ball_bound
            use_cone = engine._use_cone_bound
            point_radius = engine._point_radius
            point_cos = engine._point_cos
            point_sin = engine._point_sin
            point_cos_pos = engine._point_cos_pos
            center_norms = engine._center_norms
            last_radius, cos_max, cos_min, sin_min = engine._leaf_envelope

        # The node-value rule: under a tight budget node inner products are
        # evaluated lazily with one ddot per touched node, and ddot is not
        # bit-identical to the rows of the eager GEMV on this BLAS, so the
        # rule may depend only on (budget, tree).  KD-Tree (no centers)
        # keeps its vectorized box bound under any budget.
        lazy_values = (
            budget != _INF and budget < engine.num_nodes
            and centers is not None
        )
        center_keys = preference is BranchPreference.CENTER

        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        # The current row's state, rebound at the top of every row and
        # shared with the leaf scans below: its query, norm and node inner
        # products, its inlined TopKCollector heap, and its leaf counters.
        qrow = None
        qnorm = 0.0
        iprow = None
        heap = []
        cand = pball = pcone = 0
        stage_lb = stage_ver = 0.0

        def offer_slice(base, distances, thr, keep=None):
            """TopKCollector.offer_batch for one leaf slice; returns the
            updated threshold.

            Only distances strictly below the threshold (and, after a cone
            filter, in ``keep``) can enter the heap; while the heap is not
            full the threshold is infinite and every distance is offered.
            The survivors keep their positions ``pos`` into the id array
            ``base``.  Then the top-k cut, the stable ascending sort and the
            per-candidate heap pushes follow, in the exact arrival order
            ``offer_batch`` produces, and the ``base`` gather is deferred to
            the at-most-k finalists.
            """
            if thr == _INF:
                pos = None
                dm = distances
            else:
                below = distances < thr
                if keep is not None:
                    below &= keep
                pos = below.nonzero()[0]
                if pos.shape[0] == 0:
                    return thr
                dm = distances.take(pos)
            if dm.shape[0] > k:
                top = dm.argpartition(k - 1)[:k]
                dm = dm.take(top)
                pos = top if pos is None else pos.take(top)
            order = dm.argsort(kind="stable")
            sel = order if pos is None else pos.take(order)
            sm = base.take(sel).tolist()
            dm = dm.take(order).tolist()
            n_heap = len(heap)
            for offset, dist in enumerate(dm):
                if n_heap < k:
                    heappush(heap, (-dist, sm[offset]))
                    n_heap += 1
                    if n_heap == k:
                        thr = -heap[0][0]
                elif dist < thr:
                    heapreplace(heap, (-dist, sm[offset]))
                    thr = -heap[0][0]
                else:
                    # offers are ascending and the threshold only shrinks:
                    # the first rejection rejects the whole tail
                    break
            return thr

        # -------------------------------------------------------- leaf scans

        def scan_pruned(node, thr):
            """Algorithm 5's ``ScanWithPruning``.

            The leaf's points are sorted by descending ``r_x``, so the ball
            bound is non-decreasing along the leaf and one ``searchsorted``
            prunes the whole tail; the cone bound then filters the
            survivors elementwise, at the leaf-entry threshold.  Each pass
            runs only when the leaf's envelope says it can prune.
            """
            nonlocal cand, pball, pcone, stage_lb, stage_ver
            s = start_arr[node]
            e = end_arr[node]
            size = e - s
            ip_node = iprow[node]
            if profile:
                tic = perf_counter()
            cut = size
            if use_ball and thr != _INF:
                # max(|ip| - ||q|| r_x, 0) >= thr, with thr > 0 (a leaf is
                # scanned only below its floored node bound), is unaffected
                # by the flooring, so the unfloored (ascending) bound array
                # feeds searchsorted directly; its largest entry, the last
                # point's, says whether any point is pruned at all.
                abs_ip = ip_node if ip_node >= 0.0 else -ip_node
                if abs_ip - qnorm * last_radius[node] >= thr:
                    ball = abs_ip - qnorm * point_radius[s:e]
                    cut = int(ball.searchsorted(thr, side="left"))
                    pball += size - cut
            if profile:
                toc = perf_counter()
                stage_lb += toc - tic
            if cut == 0:
                return thr
            # One contiguous GEMV over the whole surviving prefix: points
            # the cone bound prunes below get a distance computed for free
            # inside the same BLAS call, and only survivors are offered.
            distances = np.abs(points_leaf[s: s + cut] @ qrow)
            if profile:
                tic = perf_counter()
                stage_ver += tic - toc
            keep = None
            verified = cut
            # The cone bound costs a handful of vectorized operations per
            # leaf; when only a few points survive the ball bound,
            # verifying them directly is cheaper than evaluating it, and
            # when the leaf's envelope rules every point out it is skipped.
            if cut > 8 and use_cone and thr != _INF:
                q_cos, q_sin = query_angle_terms(
                    ip_node, qnorm, center_norms[node]
                )
                if cone_envelope_may_prune(
                    q_cos, q_sin, cos_max[node], cos_min[node],
                    sin_min[node], thr,
                ):
                    ce = s + cut
                    pruned = cone_prune_mask(
                        q_cos, q_sin, point_cos[s:ce], point_sin[s:ce],
                        point_cos_pos[s:ce], thr,
                    )
                    num_pruned = int(np.count_nonzero(pruned))
                    if num_pruned:
                        pcone += num_pruned
                        verified = cut - num_pruned
                        keep = ~pruned
            if profile:
                stage_lb += perf_counter() - tic
            cand += verified
            return offer_slice(perm[s: s + cut], distances, thr, keep)

        def scan_sequential(node, thr):
            """``ScanWithPruning`` point by point, exactly as Algorithm 5
            writes it (BC-Tree ``scan_mode="sequential"``).

            The threshold tightens inside the leaf, so slightly fewer
            candidates are verified than by the vectorized scan, at a much
            higher interpreter cost, for the same neighbors.  The scan has
            no per-point stage timers: under ``profile=True`` only the
            node-bound prologue is timed.
            """
            nonlocal cand, pball, pcone
            e = end_arr[node]
            ip_node = iprow[node]
            q_cos, q_sin = query_angle_terms(
                ip_node, qnorm, center_norms[node]
            )
            for pos in range(start_arr[node], e):
                if use_ball and float(
                    point_ball_bound(ip_node, qnorm, point_radius[pos])
                ) >= thr:
                    # Remaining points have larger or equal bounds: batch
                    # prune the tail.
                    pball += e - pos
                    break
                if use_cone and point_cone_bound(
                    q_cos, q_sin, point_cos[pos], point_sin[pos]
                ) >= thr:
                    pcone += 1
                    continue
                dist = float(abs(points_leaf[pos] @ qrow))
                cand += 1
                # TopKCollector.offer
                if len(heap) < k:
                    heappush(heap, (-dist, int(perm[pos])))
                    if len(heap) == k:
                        thr = -heap[0][0]
                elif dist < thr:
                    heapreplace(heap, (-dist, int(perm[pos])))
                    thr = -heap[0][0]
            return thr

        def scan_exhaustive(node, thr):
            """Verify every point of the leaf (Algorithm 3's
            ``ExhaustiveScan``)."""
            nonlocal cand, stage_ver
            s = start_arr[node]
            e = end_arr[node]
            cand += e - s
            if profile:
                tic = perf_counter()
            distances = np.abs(points_leaf[s:e] @ qrow)
            thr = offer_slice(perm[s:e], distances, thr)
            if profile:
                stage_ver += perf_counter() - tic
            return thr

        if not pruned_scan:
            scan = scan_exhaustive
        elif engine._sequential_leaf_scan:
            scan = scan_sequential
        else:
            scan = scan_pruned

        # ------------------------------------------------------- descents

        def descend(bounds, keys):
            """The depth-first branch-and-bound from the root; returns
            ``(nodes visited, nodes expanded, leaves scanned)``.

            The query stops dead (no visit counted) once its verified
            count reaches the budget, even when the last leaf scan
            overshot it.
            """
            thr = _INF
            visited = expanded = leaves = 0
            stack = [0]
            push = stack.append
            pop = stack.pop
            while stack:
                if cand >= budget:
                    break
                nd = pop()
                visited += 1
                if bounds[nd] >= thr:
                    continue
                left = left_child[nd]
                if left == NO_CHILD:
                    leaves += 1
                    thr = scan(nd, thr)
                    continue
                right = right_child[nd]
                expanded += 1
                if keys[left] < keys[right]:
                    push(right)
                    push(left)
                else:
                    push(left)
                    push(right)
            return visited, expanded, leaves

        def descend_best_first(bounds):
            """Best-first search from the root: a min-heap frontier keyed
            by the node lower bound.

            Frontier bounds only grow along any root-to-node path, so the
            first popped bound at or above the pruning threshold ends the
            whole search; children are pushed only while still below it.
            """
            thr = _INF
            visited = expanded = leaves = 0
            tiebreak = 0  # insertion order, so the heap never compares deeper
            frontier = [(bounds[0], 0, 0)]
            while frontier:
                if cand >= budget:
                    break
                bound, _, nd = heappop(frontier)
                if bound >= thr:
                    break
                visited += 1
                left = left_child[nd]
                if left == NO_CHILD:
                    leaves += 1
                    thr = scan(nd, thr)
                    continue
                right = right_child[nd]
                expanded += 1
                for child in (left, right):
                    if bounds[child] < thr:
                        tiebreak += 1
                        heappush(frontier, (bounds[child], tiebreak, child))
            return visited, expanded, leaves

        count_ips = centers is not None
        ip_increment = 1 if engine.collaborative_ip else 2
        results = []
        for row in range(Q.shape[0]):
            # -- prologue: the row's norm and node values
            tic = perf_counter() if profile else 0.0
            qrow = Q[row]
            qnorm = float(np.linalg.norm(qrow))
            if lazy_values:
                # The engine's lazy closures: one shared construction site
                # for the per-node ddot arithmetic.
                iprow, bounds, keys = engine._lazy_node_values(
                    qrow, qnorm, preference
                )
            elif centers is not None:
                ips = centers @ qrow
                abs_ips = np.abs(ips)
                bounds = np.maximum(abs_ips - qnorm * radii, 0.0).tolist()
                keys = abs_ips.tolist() if center_keys else bounds
                iprow = ips.tolist() if pruned_scan else None
            else:
                bounds = keys = engine._box_bounds(qrow).tolist()
            stage_lb = perf_counter() - tic if profile else 0.0
            stage_ver = 0.0
            heap = []
            cand = pball = pcone = 0

            if best_first:
                visited, expanded, leaves = descend_best_first(bounds)
            else:
                visited, expanded, leaves = descend(bounds, keys)

            stats = SearchStats()
            stats.nodes_visited = visited
            if count_ips:
                stats.center_inner_products = 1 + ip_increment * expanded
            stats.candidates_verified = cand
            stats.points_pruned_ball = pball
            stats.points_pruned_cone = pcone
            stats.leaves_scanned = leaves
            if profile:
                stats.stage_seconds["lower_bounds"] = stage_lb
                stats.stage_seconds["verification"] = stage_ver
            if heap:
                pairs = sorted(((-neg, idx) for neg, idx in heap))
                distances = np.array([p[0] for p in pairs], dtype=np.float64)
                indices = np.array([p[1] for p in pairs], dtype=np.int64)
            else:
                indices = np.empty(0, dtype=np.int64)
                distances = np.empty(0, dtype=np.float64)
            results.append(
                SearchResult(indices=indices, distances=distances, stats=stats)
            )
        return results


def attach_block_timing(results: List[SearchResult], wall: float) -> None:
    """Attribute a block's wall time evenly across its per-query stats."""
    if results:
        share = wall / len(results)
        for result in results:
            result.stats.elapsed_seconds = share
