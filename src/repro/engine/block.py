"""The tree traversal: a block-vectorized multi-query branch-and-bound.

:class:`BlockTraversalKernel` is the one traversal behind every tree
index's ``search`` *and* ``batch_search``: ``search`` answers a one-row
block, ``batch_search`` hands each worker a contiguous chunk.  A block of
queries descends the tree together in one depth-first pass.  The frontier
holds ``(node, query-group)`` entries: a node is popped once per group,
its lower bound is compared against every live query's pruning threshold
in one vectorized operation, queries whose bound prunes the subtree are
masked out, and a leaf is scanned for all surviving queries of the group in
one batched event (shared 2-D ball-cut and cone-mask evaluation, one
distance GEMV per surviving query).  Groups that shrink below
:data:`SCALAR_GROUP_CUTOFF` — and every one-row block — finish on the
scalar per-query descent (``scalar_descend``: the paper's Algorithms 3 and
5 over plain Python lists).

Row-independence contract
-------------------------
A query's results *and* :class:`~repro.core.results.SearchStats` work
counters are bit-identical whichever block it is answered in — alone (as
``search`` runs it) or among any others.  Two design rules make this hold
exactly:

1. **No cross-query GEMM feeds any decision or result.**  BLAS GEMM results
   differ from the GEMV kernel in the last ulp (and are not even
   batch-size independent — measured on this build of OpenBLAS), so every
   center inner product is computed with the per-query ``centers @ q``
   GEMV and every leaf distance with the ``points_leaf[start:start + cut]
   @ q`` slice GEMV, on the group and scalar paths alike.  Cross-query
   vectorization is restricted to *elementwise* operations on stacked
   per-query values (IEEE elementwise arithmetic is bit-deterministic
   regardless of array shape) and to control flow.

2. **Each query's node-visit order equals its solo DFS order.**  The
   pruning threshold evolves along the traversal, so visit order changes
   which nodes survive the bound test — and with it ``nodes_visited`` and
   every downstream counter.  When the queries of a group disagree on the
   branch preference at an expanded node, the group therefore *splits*:
   both child subtrees are traversed once for the left-first queries and
   once (later, with their post-sibling thresholds) for the right-first
   queries.  Queries are mutually independent, so interleaving the
   subtree visits of disjoint groups on one shared stack is free; the
   per-query subsequence of events is exactly the one-row descent.

Because the per-query work is identical, the speedup of a block comes
purely from amortizing interpreter and dispatch overhead: one frontier
walk per group instead of per query, 2-D bound/cone masks shared across a
leaf group, and a lean inlined top-k heap that replicates
:meth:`~repro.core.results.TopKCollector.offer_batch` exactly (including
its tie-breaking arrival order).  The correctness oracle is the linear
scan: the property suite checks every tree family against brute force.

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
leaves the cut, the mask, every result and every counter unchanged.  A
group scan runs each pass on the subset of members whose envelope test
can fire; every row of the 2-D passes is elementwise, so a row subset
keeps its bits.  ``tests/test_counter_snapshot.py`` pins the decisions.

Scope
-----
Ball-Tree, BC-Tree (with or without the ball/cone bounds and the
collaborative inner-product accounting — the counter is logical either
way), RP-Tree and KD-Tree, exact *and* under a candidate budget.  Three
modes have order-sensitive semantics of their own and run one query per
sub-block, so every query takes the scalar descent from the root:

* ``profile=True`` — per-stage :func:`time.perf_counter` timers
  (``"lower_bounds"`` and ``"verification"``) in the whole-leaf scalar
  scans (the point-by-point sequential scan records no stage time);
* BC-Tree's ``scan_mode="sequential"`` — Algorithm 5's point-by-point
  leaf scan, whose threshold tightens *inside* a leaf;
* ``order="best_first"`` — a min-heap frontier keyed by the node lower
  bound (``scalar_best_first``), used by
  :class:`~repro.core.best_first.BestFirstSearcher`.

Candidate budgets
-----------------
The scalar descent checks ``candidates_verified >= budget`` before every
frontier pop and stops the whole traversal at the first failure — the leaf
scan that crossed the budget is *not* truncated, so the counter may
overshoot mid-leaf.  The group frontier replays exactly that: a per-query
verified count is carried next to the thresholds, every ``(node,
query-group)`` pop first retires the members whose count has reached the
budget (they stop accruing ``nodes_visited`` from that event on, exactly
like the solo ``break``), and leaf events still offer their full slice.
Because each query's event sequence equals its solo DFS (rule 2 above),
the count seen at each pop equals the solo count at the same point, so the
first-B candidate sequence — and with it every result and counter — is
identical.

One more arithmetic subtlety keeps the bits in line: for ``budget <
num_nodes`` node inner products are evaluated *lazily* with one
``centers[node] @ q`` dot per touched node
(:meth:`~repro.engine.traversal.TraversalEngine._lazy_node_values`), and
on this BLAS build the ddot kernel is **not** bit-identical to the rows of
the eager ``centers @ q`` GEMV (nor is a GEMV over a row slice identical
to the same rows of the full GEMV — both measured).  The strategy rule
depends only on ``(budget, tree)``, so every block size picks the same
one.  KD-Tree has no center inner products and its lazy per-node box bound
is bit-identical to the rows of the vectorized bound pass (elementwise
products plus NumPy's shape-independent pairwise row sums), so the KD
kernel keeps the eager precompute under every budget.

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
    cone_prune_mask_block,
    point_ball_bound,
    point_cone_bound,
    query_angle_terms,
    query_angle_terms_block,
)
from repro.core.policies import BranchPreference
from repro.core.results import SearchResult, SearchStats

NO_CHILD = -1

_INF = float("inf")

#: Upper bound on queries per internal kernel sub-block.  Larger blocks
#: keep query groups larger for longer (less splitting overhead per query),
#: at the cost of O(block * num_nodes) bound storage and an
#: O(block * max_leaf) distance buffer; sub-blocking is invisible in the
#: results because queries are mutually independent.
BLOCK_QUERIES = 4096

#: Target element count of one sub-block's transient arrays (bound
#: matrices plus the leaf-distance buffer); the effective sub-block size is
#: shrunk so ``block * (7 * num_nodes + max_leaf)`` stays near this bound,
#: keeping kernel memory flat no matter how deep the tree is.
BLOCK_TARGET_ELEMENTS = 4_000_000

#: Query groups at or below this size leave the vectorized frontier and
#: finish on the scalar per-query descent: NumPy dispatch on tiny gathers
#: costs more than the plain Python loop it would replace.
SCALAR_GROUP_CUTOFF = 6


class BlockTraversalKernel:
    """Multi-query branch-and-bound over one fitted :class:`TraversalEngine`.

    Built (and cached) by :meth:`TraversalEngine.block_kernel`; holds only
    references to the engine's arrays plus the static leaf geometry, so it
    is cheap to construct and carries no per-query state.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self._max_leaf = max(
            (
                end - start
                for start, end, left in zip(
                    engine._start, engine._end, engine._left
                )
                if left == NO_CHILD
            ),
            default=0,
        )

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
        engine = self._engine
        preference = (
            engine.default_preference
            if preference is None
            else BranchPreference.coerce(preference)
        )
        num_queries = matrix.shape[0]
        if num_queries == 0:
            return []
        best_first = order == "best_first"
        if best_first or profile or engine._sequential_leaf_scan:
            # Order-sensitive modes: one query per sub-block, so every
            # query runs the scalar descent from the root.
            block = 1
        else:
            block = max(1, min(BLOCK_QUERIES, self._block_queries()))
        results: List[SearchResult] = []
        for start in range(0, num_queries, block):
            results.extend(
                self._run_block(
                    matrix[start: start + block], k, preference, budget,
                    best_first, profile,
                )
            )
        return results

    def _block_queries(self) -> int:
        """Sub-block size bounding the kernel's transient memory.

        A block of ``B`` queries materializes up to seven float64
        ``(B, num_nodes)`` matrices (inner products, bounds, keys, and
        their node-major copies) plus the ``(B, max_leaf)`` distance
        buffer, so the per-query element footprint is
        ``7 * num_nodes + max_leaf``; the sub-block is sized to keep the
        total near :data:`BLOCK_TARGET_ELEMENTS` (~32 MB of float64) no
        matter how deep the tree is.
        """
        per_query = max(1, self._max_leaf + 7 * self._engine.num_nodes)
        return max(1, BLOCK_TARGET_ELEMENTS // per_query)

    # ------------------------------------------------------------ block DFS

    def _run_block(self, Q, k, preference, budget, best_first, profile):
        engine = self._engine
        num_nodes = engine.num_nodes
        B = Q.shape[0]
        centers = engine._centers
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

        budgeted = budget != _INF
        # The node-value strategy rule: under a tight budget node inner
        # products are evaluated lazily with one ddot per touched node, and
        # ddot is not bit-identical to the rows of the eager GEMV on this
        # BLAS, so the rule may depend only on (budget, tree).  KD-Tree (no
        # centers) keeps the eager precompute under any budget: its lazy
        # per-node box bound is bit-identical to the rows of the vectorized
        # pass (elementwise products + NumPy's shape-independent pairwise
        # row sums).
        lazy_values = budgeted and budget < num_nodes and centers is not None

        # -- per-query preparation: per-query GEMV / elementwise kernels,
        # stacked into (B, nodes) matrices (eager strategy), or per-node
        # ddot closures (lazy strategy).
        tic = perf_counter() if profile else 0.0
        qn = np.empty(B)
        if centers is not None and not lazy_values:
            IPS = np.empty((B, num_nodes))
            for b in range(B):
                qn[b] = float(np.linalg.norm(Q[b]))
                IPS[b] = centers @ Q[b]
            ABS = np.abs(IPS)
            BOUNDS = np.maximum(ABS - qn[:, None] * engine._radii[None, :], 0.0)
            KEYS = ABS if preference is BranchPreference.CENTER else BOUNDS
        elif centers is not None:
            IPS = None
            BOUNDS = None
            KEYS = None
            for b in range(B):
                qn[b] = float(np.linalg.norm(Q[b]))
        else:
            IPS = None
            BOUNDS = np.empty((B, num_nodes))
            for b in range(B):
                qn[b] = float(np.linalg.norm(Q[b]))
                BOUNDS[b] = engine._box_bounds(Q[b])
            KEYS = BOUNDS
        # per-query stage timers (profiling runs one-row blocks, so the
        # prologue above is that row's node-bound stage)
        stage_lb = [(perf_counter() - tic) / B if profile else 0.0] * B
        stage_ver = [0.0] * B
        # node-major copies: frontier gathers touch one contiguous row (a
        # one-row block goes straight to the scalar descent, which reads
        # per-query lists instead)
        if lazy_values or B == 1:
            BT = KT = AT = IPT = None
        else:
            BT = np.ascontiguousarray(BOUNDS.T)
            KT = BT if KEYS is BOUNDS else np.ascontiguousarray(KEYS.T)
            if pruned_scan:
                AT = np.ascontiguousarray(ABS.T)
                IPT = np.ascontiguousarray(IPS.T)
        qn_list = qn.tolist()

        # -- per-query search state: an inlined TopKCollector (same heap,
        # same tie semantics) plus its threshold as a plain float / array.
        heaps = [[] for _ in range(B)]
        thr_list = [_INF] * B
        THR = np.full(B, _INF)

        # work counters: python ints for the scalar paths, one vectorized
        # accumulator for the group paths; summed at materialization.
        nv = [0] * B
        exps = [0] * B
        cand = [0] * B
        pball = [0] * B
        pcone = [0] * B
        nleaves = [0] * B
        nv_arr = np.zeros(B, dtype=np.int64)
        exps_arr = np.zeros(B, dtype=np.int64)
        cand_arr = np.zeros(B, dtype=np.int64)
        pball_arr = np.zeros(B, dtype=np.int64)
        pcone_arr = np.zeros(B, dtype=np.int64)
        nleaves_arr = np.zeros(B, dtype=np.int64)

        # lazy per-query scalar row caches (built when a query goes scalar;
        # in the lazy-value strategy they hold _LazyNodeValues and serve the
        # group paths too)
        brow_cache = [None] * B
        krow_cache = [None] * B
        iprow_cache = [None] * B

        # per-query verified-candidate counts driving the budget checks
        # (int64 so the vectorized pop filter needs no Python loop)
        VER = np.zeros(B, dtype=np.int64) if budgeted else None

        if lazy_values:
            for q in range(B):
                # The engine's lazy closures: one shared construction site
                # for the per-node ddot arithmetic.
                ips_q, bounds_q, keys_q = engine._lazy_node_values(
                    Q[q], qn_list[q], preference
                )
                iprow_cache[q] = ips_q
                brow_cache[q] = bounds_q
                krow_cache[q] = keys_q

        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        max_leaf = self._max_leaf
        D2 = np.empty((B, max_leaf)) if max_leaf else None
        col_idx = np.arange(max_leaf)

        def offer_all(q, base, pos, dm):
            """TopKCollector.offer_batch on already threshold-filtered
            candidates; returns the updated threshold.

            ``dm`` holds the surviving distances (the ``distance <
            threshold`` mask — a no-op while the heap is not full — is
            already applied) and ``pos`` their positions into the id array
            ``base``.  Only the top-k cut, the stable ascending sort, and
            the per-candidate heap pushes — the exact arrival order
            ``offer_batch`` produces — remain.  The partition and sort run
            on one query's own distance array, so their selections do not
            depend on the block, and the ``base`` gather is deferred to the
            at-most-k finalists.
            """
            heap = heaps[q]
            if dm.shape[0] > k:
                keep = dm.argpartition(k - 1)[:k]
                dm = dm.take(keep)
                pos = keep if pos is None else pos.take(keep)
            order = dm.argsort(kind="stable")
            sel = order if pos is None else pos.take(order)
            sm = base.take(sel).tolist()
            dm = dm.take(order).tolist()
            thr = thr_list[q]
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
            thr_list[q] = thr
            return thr

        def offer_slice(q, base, distances, thr, keep=None):
            """Offer one query's leaf slice: only distances strictly below
            the threshold (and, after a cone filter, in ``keep``) can enter
            the heap."""
            if thr == _INF:
                return offer_all(q, base, None, distances)
            below = distances < thr
            if keep is not None:
                below &= keep
            pos = below.nonzero()[0]
            if pos.shape[0] == 0:
                return thr
            return offer_all(q, base, pos, distances.take(pos))

        def offer_rows_unfiltered(live_list, base, D, g, width):
            """Offer every distance of ``D``'s rows (no thresholds yet).

            Used by the all-infinite-threshold leaf events, where every
            group member's candidate set is the *whole* row: the 2-D
            partition/sort then runs on exactly the arrays a one-row block
            would partition row by row, so the tie selection at the k-th
            value is identical, at one NumPy call for the whole group
            instead of several per member.
            """
            if width > k:
                parts = D.argpartition(k - 1, axis=1)[:, :k]
                vals = np.take_along_axis(D, parts, axis=1)
            else:
                parts = None
                vals = D
            order = vals.argsort(axis=1, kind="stable")
            dms = np.take_along_axis(vals, order, axis=1)
            sels = order if parts is None else np.take_along_axis(
                parts, order, axis=1
            )
            for i in range(g):
                q = live_list[i]
                heap = heaps[q]
                sm = base.take(sels[i]).tolist()
                dm = dms[i].tolist()
                thr = thr_list[q]
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
                        break
                thr_list[q] = thr
                THR[q] = thr

        # ------------------------------------------------- scalar leaf scans

        def scan_scalar_pruned(node, q, thr, qnorm, iprow, qrow):
            """Algorithm 5's ``ScanWithPruning`` for one query.

            The leaf's points are sorted by descending ``r_x``, so the ball
            bound is non-decreasing along the leaf and one ``searchsorted``
            prunes the whole tail; the cone bound then filters the
            survivors elementwise, at the leaf-entry threshold.  Each pass
            runs only when the leaf's envelope says it can prune.
            """
            nleaves[q] += 1
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
                    pball[q] += size - cut
            if profile:
                toc = perf_counter()
                stage_lb[q] += toc - tic
            if cut == 0:
                return thr
            # One contiguous GEMV over the whole surviving prefix: points
            # the cone bound prunes below get a distance computed for free
            # inside the same BLAS call, and only survivors are offered.
            distances = np.abs(points_leaf[s: s + cut] @ qrow)
            if profile:
                tic = perf_counter()
                stage_ver[q] += tic - toc
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
                    prod = q_cos * point_cos[s: s + cut]
                    scaled = q_sin * point_sin[s: s + cut]
                    # Theorem 3's case analysis, simplified for thr > 0:
                    # the case-1 bound cos(theta + phi) prunes when
                    # q_cos > 0, x_cos > 0 and cos_sum >= thr (cos_sum > 0
                    # is then implied); the case-2 bound -cos(theta - phi)
                    # prunes when cos_diff <= -thr (which implies
                    # cos_diff < 0 and, since cos_sum <= cos_diff, rules
                    # case 1 out).
                    if q_cos > 0.0:
                        pruned = (
                            point_cos_pos[s: s + cut]
                            & (prod - scaled >= thr)
                        ) | (prod + scaled <= -thr)
                    else:
                        pruned = prod + scaled <= -thr
                    num_pruned = int(np.count_nonzero(pruned))
                    if num_pruned:
                        pcone[q] += num_pruned
                        verified = cut - num_pruned
                        keep = ~pruned
            if profile:
                stage_lb[q] += perf_counter() - tic
            cand[q] += verified
            return offer_slice(q, perm[s: s + cut], distances, thr, keep)

        def scan_scalar_sequential(node, q, thr, qnorm, iprow, qrow):
            """``ScanWithPruning`` point by point, exactly as Algorithm 5
            writes it (BC-Tree ``scan_mode="sequential"``).

            The threshold tightens inside the leaf, so slightly fewer
            candidates are verified than by the vectorized scan, at a much
            higher interpreter cost, for the same neighbors.  The scan has
            no per-point stage timers: under ``profile=True`` only the
            node-bound prologue is timed.
            """
            nleaves[q] += 1
            e = end_arr[node]
            ip_node = iprow[node]
            q_cos, q_sin = query_angle_terms(
                ip_node, qnorm, center_norms[node]
            )
            heap = heaps[q]
            for pos in range(start_arr[node], e):
                if use_ball and float(
                    point_ball_bound(ip_node, qnorm, point_radius[pos])
                ) >= thr:
                    # Remaining points have larger or equal bounds: batch
                    # prune the tail.
                    pball[q] += e - pos
                    break
                if use_cone and point_cone_bound(
                    q_cos, q_sin, point_cos[pos], point_sin[pos]
                ) >= thr:
                    pcone[q] += 1
                    continue
                dist = float(abs(points_leaf[pos] @ qrow))
                cand[q] += 1
                # TopKCollector.offer
                if len(heap) < k:
                    heappush(heap, (-dist, int(perm[pos])))
                    if len(heap) == k:
                        thr = -heap[0][0]
                elif dist < thr:
                    heapreplace(heap, (-dist, int(perm[pos])))
                    thr = -heap[0][0]
            thr_list[q] = thr
            return thr

        def scan_scalar_exhaustive(node, q, thr, qnorm, iprow, qrow):
            """Verify every point of the leaf (Algorithm 3's
            ``ExhaustiveScan``) for one query."""
            nleaves[q] += 1
            s = start_arr[node]
            e = end_arr[node]
            cand[q] += e - s
            if profile:
                tic = perf_counter()
            distances = np.abs(points_leaf[s:e] @ qrow)
            thr = offer_slice(q, perm[s:e], distances, thr)
            if profile:
                stage_ver[q] += perf_counter() - tic
            return thr

        if not pruned_scan:
            scan_scalar = scan_scalar_exhaustive
        elif engine._sequential_leaf_scan:
            scan_scalar = scan_scalar_sequential
        else:
            scan_scalar = scan_scalar_pruned

        def scalar_rows(q):
            """One query's bound list, building its row caches on first use."""
            br = brow_cache[q]
            if br is None:
                br = brow_cache[q] = BOUNDS[q].tolist()
                krow_cache[q] = (
                    br if KEYS is BOUNDS else KEYS[q].tolist()
                )
                iprow_cache[q] = None if IPS is None else IPS[q].tolist()
            return br

        def scalar_descend(node, q):
            """Finish one query's DFS from ``node`` (solo loop, solo order)."""
            br = scalar_rows(q)
            kr = krow_cache[q]
            ipr = iprow_cache[q]
            qrow = Q[q]
            thr = thr_list[q]
            qnorm = qn_list[q]
            # verified count = offset + cand[q]; the query stops dead (no
            # visit counted) once it reaches the budget, even when the last
            # leaf scan overshot it
            offset = int(VER[q]) - cand[q] if budgeted else 0
            limit = budget - offset
            nvq = 0
            exq = 0
            stack = [node]
            push = stack.append
            pop = stack.pop
            while stack:
                if cand[q] >= limit:
                    break
                nd = pop()
                nvq += 1
                if br[nd] >= thr:
                    continue
                left = left_child[nd]
                if left == NO_CHILD:
                    thr = scan_scalar(nd, q, thr, qnorm, ipr, qrow)
                    continue
                right = right_child[nd]
                exq += 1
                if kr[left] < kr[right]:
                    push(right)
                    push(left)
                else:
                    push(left)
                    push(right)
            finish_scalar(q, nvq, exq, thr, offset)

        def scalar_best_first(node, q):
            """One query's best-first search from ``node``: a min-heap
            frontier keyed by the node lower bound.

            Frontier bounds only grow along any root-to-node path, so the
            first popped bound at or above the pruning threshold ends the
            whole search; children are pushed only while still below it.
            """
            br = scalar_rows(q)
            ipr = iprow_cache[q]
            qrow = Q[q]
            thr = thr_list[q]
            qnorm = qn_list[q]
            offset = int(VER[q]) - cand[q] if budgeted else 0
            limit = budget - offset
            nvq = 0
            exq = 0
            tiebreak = 0  # insertion order, so the heap never compares deeper
            frontier = [(br[node], 0, node)]
            while frontier:
                if cand[q] >= limit:
                    break
                bound, _, nd = heappop(frontier)
                if bound >= thr:
                    break
                nvq += 1
                left = left_child[nd]
                if left == NO_CHILD:
                    thr = scan_scalar(nd, q, thr, qnorm, ipr, qrow)
                    continue
                right = right_child[nd]
                exq += 1
                for child in (left, right):
                    if br[child] < thr:
                        tiebreak += 1
                        heappush(frontier, (br[child], tiebreak, child))
            finish_scalar(q, nvq, exq, thr, offset)

        def finish_scalar(q, nvq, exq, thr, offset):
            """Fold a scalar descent's local state back into the block."""
            nv[q] += nvq
            exps[q] += exq
            THR[q] = thr
            if budgeted:
                VER[q] = offset + cand[q]

        descend = scalar_best_first if best_first else scalar_descend

        # -------------------------------------------------- group leaf scans

        def scan_group_pruned(node, live, thr_g, all_inf):
            """Vectorized ScanWithPruning for a whole query group.

            ``thr_g`` is either all finite or all infinite (``all_inf``);
            mixed groups are split by the caller.  All bound arithmetic is
            elementwise on the same values the scalar scan uses, distances
            come from the same per-query slice GEMVs, and the combined
            offer mask equals the scalar scan's cone filter AND'ed with
            ``offer_batch``'s threshold mask (boolean-mask composition
            preserves both selection and order).
            """
            g = live.shape[0]
            s = start_arr[node]
            e = end_arr[node]
            size = e - s
            nleaves_arr[live] += 1
            qn_g = qn.take(live)
            live_list = live.tolist()
            cuts = np.full(g, size, dtype=np.int64)
            if use_ball and not all_inf:
                if lazy_values:
                    # same |ip| the scalar scan derives from the lazy ddot
                    # (cached since the bound test at this node's pop)
                    aip = np.array(
                        [abs(iprow_cache[q][node]) for q in live_list]
                    )
                else:
                    aip = AT[node].take(live)
                # the ball cut runs for the members whose largest point
                # bound (the last point's) reaches their threshold
                reach = np.flatnonzero(
                    aip - qn_g * last_radius[node] >= thr_g
                )
                if reach.shape[0]:
                    ball = (
                        aip.take(reach)[:, None]
                        - qn_g.take(reach)[:, None] * point_radius[None, s:e]
                    )
                    reach_cuts = (
                        ball < thr_g.take(reach)[:, None]
                    ).sum(axis=1)
                    cuts[reach] = reach_cuts
                    pball_arr[live.take(reach)] += size - reach_cuts
            maxcut = int(cuts.max())
            if maxcut == 0:
                return
            cuts_list = cuts.tolist()
            D = D2[:g, :maxcut]
            for i in range(g):
                cut = cuts_list[i]
                if cut:
                    np.matmul(
                        points_leaf[s: s + cut], Q[live_list[i]],
                        out=D[i, :cut],
                    )
            np.abs(D, out=D)

            cone_rows = None
            counted = cuts
            if use_cone and not all_inf and maxcut > 8:
                if lazy_values:
                    ip_g = np.array(
                        [iprow_cache[q][node] for q in live_list]
                    )
                else:
                    ip_g = IPT[node].take(live)
                q_cos, q_sin = query_angle_terms_block(
                    ip_g, qn_g, center_norms[node]
                )
                # the cone mask runs for the members with more than 8
                # points left whose leaf envelope can prune; its rows are
                # elementwise, so a row subset keeps every bit
                may = np.flatnonzero(
                    (cuts > 8)
                    & cone_envelope_may_prune(
                        q_cos, q_sin, cos_max[node], cos_min[node],
                        sin_min[node], thr_g,
                    )
                )
                if may.shape[0]:
                    may_cuts = cuts.take(may)
                    width = int(may_cuts.max())
                    ce = s + width
                    cone_rows = cone_prune_mask_block(
                        q_cos.take(may),
                        q_sin.take(may),
                        point_cos[s:ce],
                        point_sin[s:ce],
                        point_cos_pos[s:ce],
                        thr_g.take(may),
                    )
                    cone_rows &= col_idx[None, :width] < may_cuts[:, None]
                    num_pruned = np.count_nonzero(cone_rows, axis=1)
                    hit = num_pruned > 0
                    if hit.any():
                        cone_members = may[hit]
                        cone_rows = cone_rows[hit]
                        num_pruned = num_pruned[hit]
                        pcone_arr[live.take(cone_members)] += num_pruned
                        counted = cuts.copy()
                        counted[cone_members] -= num_pruned
                    else:
                        cone_rows = None
            cand_arr[live] += counted
            if budgeted:
                VER[live] += counted

            if all_inf:
                # cuts == size for every member: the whole leaf is offered
                offer_rows_unfiltered(
                    live_list, perm[s: s + maxcut], D, g, maxcut
                )
                return
            om = D < thr_g[:, None]
            om &= col_idx[None, :maxcut] < cuts[:, None]
            if cone_rows is not None:
                om[cone_members, :width] &= ~cone_rows
            offering = np.nonzero(om.any(axis=1))[0]
            if offering.shape[0] == 0:
                return
            base = perm[s: s + maxcut]
            for i in offering.tolist():
                pos = om[i].nonzero()[0]
                q = live_list[i]
                THR[q] = offer_all(q, base, pos, D[i].take(pos))

        def scan_group_exhaustive(node, live, thr_g, all_inf):
            """Vectorized ExhaustiveScan for a whole query group."""
            g = live.shape[0]
            s = start_arr[node]
            e = end_arr[node]
            size = e - s
            nleaves_arr[live] += 1
            cand_arr[live] += size
            if budgeted:
                VER[live] += size
            if size == 0:
                return
            live_list = live.tolist()
            D = D2[:g, :size]
            for i in range(g):
                np.matmul(points_leaf[s:e], Q[live_list[i]], out=D[i])
            np.abs(D, out=D)
            base = perm[s:e]
            if all_inf:
                offer_rows_unfiltered(live_list, base, D, g, size)
                return
            om = D < thr_g[:, None]
            offering = np.nonzero(om.any(axis=1))[0]
            for i in offering.tolist():
                pos = om[i].nonzero()[0]
                q = live_list[i]
                THR[q] = offer_all(q, base, pos, D[i].take(pos))

        scan_group = (
            scan_group_pruned if pruned_scan else scan_group_exhaustive
        )

        def scan_group_split(node, live):
            """Dispatch a leaf group, splitting mixed-threshold groups.

            A group mixes finite and infinite thresholds only around each
            query's first scanned leaf; the two subsets are independent, so
            scanning them one after the other is exactly the one-row
            semantics.
            """
            thr_g = THR.take(live)
            finite = thr_g != _INF
            if finite.all():
                scan_group(node, live, thr_g, False)
            elif not finite.any():
                scan_group(node, live, thr_g, True)
            else:
                scan_group(node, live[finite], thr_g[finite], False)
                scan_group(node, live[~finite], thr_g[~finite], True)

        # --------------------------------------------------- shared frontier

        if B == 1:
            # a one-row block (every ``search`` call) is one scalar descent
            descend(0, 0)
            stack = []
        else:
            stack = [(0, np.arange(B, dtype=np.int64))]
        while stack:
            node, qs = stack.pop()
            if budgeted:
                # retire members whose verified count reached the budget:
                # their solo loop broke before this pop, so they accrue
                # neither the visit nor any downstream work
                alive = VER.take(qs) < budget
                if not alive.all():
                    qs = qs[alive]
                    if qs.shape[0] == 0:
                        continue
            n = qs.shape[0]
            if n == 1:
                descend(node, int(qs[0]))
                continue
            nv_arr[qs] += 1
            if lazy_values:
                qs_list = qs.tolist()
                bound_vals = np.array(
                    [brow_cache[q][node] for q in qs_list]
                )
            else:
                bound_vals = BT[node].take(qs)
            mask = bound_vals < THR.take(qs)
            nlive = int(mask.sum())
            if nlive == 0:
                continue
            live = qs if nlive == n else qs[mask]
            left = left_child[node]
            if left == NO_CHILD:
                scan_group_split(node, live)
                continue
            right = right_child[node]
            exps_arr[live] += 1
            if lazy_values:
                live_list = qs_list if nlive == n else live.tolist()
                kl = np.array([krow_cache[q][left] for q in live_list])
                kr = np.array([krow_cache[q][right] for q in live_list])
            else:
                kl = KT[left].take(live)
                kr = KT[right].take(live)
            if nlive <= SCALAR_GROUP_CUTOFF:
                for i, q in enumerate(live.tolist()):
                    if kl[i] < kr[i]:
                        scalar_descend(left, q)
                        scalar_descend(right, q)
                    else:
                        scalar_descend(right, q)
                        scalar_descend(left, q)
                continue
            pref_left = kl < kr
            npl = int(pref_left.sum())
            if npl == nlive:
                stack.append((right, live))
                stack.append((left, live))
            elif npl == 0:
                stack.append((left, live))
                stack.append((right, live))
            else:
                # split: left-first queries traverse (left, right), the
                # rest (right, left); both child subtrees are visited once
                # per sub-group, each sub-group in its own solo order
                first = live[pref_left]
                second = live[~pref_left]
                stack.append((left, second))
                stack.append((right, second))
                stack.append((right, first))
                stack.append((left, first))

        # ------------------------------------------------- materialization

        count_ips = centers is not None
        ip_increment = 1 if engine.collaborative_ip else 2
        results = []
        for q in range(B):
            stats = SearchStats()
            stats.nodes_visited = nv[q] + int(nv_arr[q])
            if count_ips:
                stats.center_inner_products = 1 + ip_increment * (
                    exps[q] + int(exps_arr[q])
                )
            stats.candidates_verified = cand[q] + int(cand_arr[q])
            stats.points_pruned_ball = pball[q] + int(pball_arr[q])
            stats.points_pruned_cone = pcone[q] + int(pcone_arr[q])
            stats.leaves_scanned = nleaves[q] + int(nleaves_arr[q])
            if profile:
                stats.stage_seconds["lower_bounds"] = stage_lb[q]
                stats.stage_seconds["verification"] = stage_ver[q]
            heap = heaps[q]
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
