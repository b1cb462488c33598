"""Approximate fast-mode tree kernel: float32 storage + cross-query GEMM.

:class:`FastTreeKernel` is the execution path behind ``exact=False``.  It
answers whole query blocks over the same flat tree the exact engine walks,
but drops the exact paths' bit-identity contract, which unlocks the
arithmetic the exact :class:`~repro.engine.block.BlockTraversalKernel` must
forgo:

* **Reduced-precision storage.**  The kernel works on a leaf-ordered
  float32 copy of the points plus float32 center/radius (or KD box) arrays
  (:meth:`~repro.engine.traversal.TraversalEngine.fast_arrays`), halving
  memory traffic on every bound and distance evaluation.
* **Cross-query GEMM.**  Node bounds come from one eager
  ``Q @ centers.T`` GEMM per sub-block, and every leaf a group reaches is
  verified with a single ``Q[live] @ points_leaf[s:e].T`` GEMM for the
  whole surviving group — the per-query GEMVs (and the per-(node, query)
  ddots of the budgeted exact path) are gone.
* **No group splitting.**  The exact kernel must replay every query's solo
  DFS order, so groups split whenever branch preferences disagree.  Here a
  popped group stays intact: children are visited in the *majority*
  preference order, trading per-query descent optimality for much larger
  (and therefore cheaper) group events.  The per-candidate top-k offers
  of a group leaf run through :func:`repro.engine.kernels.offer_rows` —
  Numba-compiled when available, vectorized NumPy otherwise.
* **One leaf sweep per small query group.**  A group of at most
  :data:`SCALAR_GROUP_CUTOFF` rows leaves the shared DFS, and each of its
  queries is finished after the DFS by one sweep over every subtree
  handed to it (:meth:`FastTreeKernel._sweep`).  The sweep reads each
  leaf's own node bound from the block's bound table, verifies the leaves
  that can still hold a top-k point with one GEMV per contiguous run of
  leaves (a seed while the query has no threshold yet, then the first
  quarter of the admitted leaves, then the rest the tightened threshold
  still admits), and selects the top-k once.  A block of at most
  :data:`SCALAR_GROUP_CUTOFF` rows — every one-row ``search`` — is taken
  whole at the root: it skips the warm start, and no GEMM runs for its
  leaves.

Approximation contract
----------------------
Results are *near-exact*, not bit-exact.  Distances are computed in the
storage dtype, so candidates whose true distances differ by less than the
float32 rounding error (relative ~1e-6) may swap at the top-k boundary;
node pruning applies a relative slack of :data:`FAST_PRUNE_SLACK` so a
rounded-up float32 bound cannot prune a node the float64 bound would keep.
The property suite and `benchmarks/bench_fast_mode.py` hold the mode to
recall@k >= 0.999 against the exact oracle (recall counted with a 1e-5
relative distance tolerance, the standard epsilon-recall for
reduced-precision ANN).  ``SearchStats`` counters are populated with the
fast traversal's own work counts; they are **not** comparable to the exact
path's counters, and the per-point pruning counters stay zero — fast mode
always verifies whole leaves, which is cheaper than point-level bound
evaluation at float32 GEMM speed.  ``nodes_visited`` counts the group
nodes popped with a query plus the leaves whose bound the sweep read,
``leaves_scanned`` and ``candidates_verified`` the leaves and rows
verified (by group GEMMs and sweep GEMVs alike), and
``center_inner_products`` the root plus the group DFS's expansions (the
sweep expands no node).

Results do not depend on how a batch is *chunked across workers* only up
to the majority vote: chunking changes group composition and thereby child
visit order, so two pool sizes may disagree on near-tie candidates.  Fast
mode therefore promises recall, never bitwise batch invariance.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.policies import BranchPreference
from repro.core.results import SearchResult, SearchStats
from repro.engine import kernels

NO_CHILD = -1

_INF = float("inf")

#: Relative pruning slack: a node (or a leaf in the finisher's sweep) is
#: visited while ``bound <= threshold * FAST_PRUNE_SLACK``.  Float32 bound
#: arithmetic has relative error around 1e-6; the 1e-4 slack makes a
#: wrongly-pruned-by-rounding subtree essentially impossible at the cost of
#: visiting a sliver of extra borderline nodes.
FAST_PRUNE_SLACK = 1.0001

#: Target element count of one sub-block's transient arrays; float32
#: elements, so the bound matrices plus the leaf GEMM buffer stay around
#: 32 MB regardless of tree depth.
BLOCK_TARGET_ELEMENTS = 8_000_000

#: Upper bound on queries per internal sub-block (same rationale as the
#: exact block kernel's cap).
BLOCK_QUERIES = 4096

#: Groups at or below this size leave the shared frontier and are finished
#: by the per-query leaf sweep; NumPy/GEMM dispatch on tiny groups costs
#: more than it saves.
SCALAR_GROUP_CUTOFF = 4


class FastTreeKernel:
    """Multi-query approximate DFS over one fitted traversal engine.

    Built (and cached per storage dtype) by
    :meth:`TraversalEngine.fast_kernel`; holds the engine's
    :class:`~repro.engine.traversal.FastArrays` plus static leaf geometry.
    """

    def __init__(self, engine, dtype: str = "float32") -> None:
        self._engine = engine
        self._arrays = engine.fast_arrays(dtype)
        self.dtype = self._arrays.dtype
        # Array mirrors of the engine's per-node lists for the vectorized
        # warm-start descent (the DFS proper reads the lists scalar-wise).
        self._left_np = np.asarray(engine._left, dtype=np.int64)
        self._right_np = np.asarray(engine._right, dtype=np.int64)
        # Leaf geometry of the per-query sweep: the non-empty leaves in
        # leaf order with their point ranges, and for every node the
        # [lo, hi) range of its leaves (a subtree's points are contiguous,
        # so its leaves are too).
        start = np.asarray(engine._start, dtype=np.int64)
        end = np.asarray(engine._end, dtype=np.int64)
        leaves = np.flatnonzero((self._left_np == NO_CHILD) & (end > start))
        leaves = leaves[np.argsort(start[leaves], kind="stable")]
        self._leaf_nodes = leaves
        self._leaf_start = start[leaves]
        self._leaf_end = end[leaves]
        self._leaf_size = self._leaf_end - self._leaf_start
        self._leaf_lo = np.searchsorted(self._leaf_start, start).tolist()
        self._leaf_hi = np.searchsorted(self._leaf_start, end).tolist()
        self._max_leaf = int(self._leaf_size.max(initial=0))
        points_leaf = self._arrays.points_leaf
        if points_leaf.shape[0]:
            self._max_point_norm = float(
                np.sqrt(
                    np.einsum("ij,ij->i", points_leaf, points_leaf).max()
                )
            )
        else:
            self._max_point_norm = 0.0

    # ------------------------------------------------------------------- API

    def search_block(
        self,
        matrix: np.ndarray,
        k: int,
        *,
        preference=None,
        budget: float = _INF,
    ) -> List[SearchResult]:
        """Answer every row of the already-normalized query ``matrix``.

        ``matrix`` arrives in float64 from the index's normalization path
        and is cast to the storage dtype here, so the whole traversal —
        bounds, distances, thresholds — runs in reduced precision.  The
        candidate ``budget`` retires a query once its verified count
        reaches it, mirroring the exact semantics coarsely (whole leaves
        are always verified at once).
        """
        engine = self._engine
        preference = (
            engine.default_preference
            if preference is None
            else BranchPreference.coerce(preference)
        )
        num_queries = matrix.shape[0]
        if num_queries == 0:
            return []
        block = max(1, min(BLOCK_QUERIES, self._block_queries()))
        results: List[SearchResult] = []
        for start in range(0, num_queries, block):
            results.extend(
                self._run_block(
                    matrix[start: start + block], k, preference, budget
                )
            )
        return results

    def _block_queries(self) -> int:
        """Sub-block size bounding the kernel's transient memory."""
        engine = self._engine
        num_nodes = engine.num_nodes
        if self._arrays.centers is not None:
            per_query = 5 * num_nodes + self._max_leaf
        else:
            # KD box bounds materialize a (B, nodes, d) product pair.
            dim = self._arrays.points_leaf.shape[1]
            per_query = 2 * num_nodes * dim + 2 * num_nodes + self._max_leaf
        return max(1, BLOCK_TARGET_ELEMENTS // max(1, per_query))

    # ------------------------------------------------------------ block DFS

    def _run_block(self, matrix, k, preference, budget=_INF):
        engine = self._engine
        arrays = self._arrays
        dtype = arrays.dtype
        left_child = engine._left
        right_child = engine._right
        start_arr = engine._start
        end_arr = engine._end
        perm = engine._perm
        points_leaf = arrays.points_leaf
        centers = arrays.centers

        Q = np.ascontiguousarray(matrix, dtype=dtype)
        B = Q.shape[0]
        qn = np.sqrt(np.einsum("ij,ij->i", Q, Q, dtype=dtype))

        # -- eager vectorized node values: one GEMM (or one box-bound pass)
        # for the whole (sub-block, tree) cross product.
        if centers is not None:
            IPS = Q @ centers.T
            np.abs(IPS, out=IPS)               # ABS, reused as the key
            BOUNDS = IPS - qn[:, None] * arrays.radii[None, :]
            np.maximum(BOUNDS, 0.0, out=BOUNDS)
            KEYS = IPS if preference is BranchPreference.CENTER else BOUNDS
        else:
            prod_lower = arrays.lower[None, :, :] * Q[:, None, :]
            prod_upper = arrays.upper[None, :, :] * Q[:, None, :]
            lo = np.minimum(prod_lower, prod_upper).sum(axis=2)
            hi = np.maximum(prod_lower, prod_upper).sum(axis=2)
            straddles = (lo <= 0.0) & (hi >= 0.0)
            BOUNDS = np.where(
                straddles, dtype.type(0.0), np.minimum(np.abs(lo), np.abs(hi))
            )
            KEYS = BOUNDS
        # node-major copies: frontier gathers touch one contiguous row
        BT = np.ascontiguousarray(BOUNDS.T)
        KT = BT if KEYS is BOUNDS else np.ascontiguousarray(KEYS.T)

        # -- per-query top-k state (shared with the compiled kernels)
        top_d = np.full((B, k), _INF, dtype=dtype)
        top_i = np.full((B, k), -1, dtype=np.int64)
        THR = np.full(B, _INF, dtype=dtype)

        # -- warm start: every query greedily descends to one leaf (its own
        # branch preference, vectorized across the block) and THR is seeded
        # with the k-th smallest distance inside that leaf — a valid upper
        # bound on the final k-th distance.  The first few leaf events of
        # the DFS would otherwise run with THR = +inf and merge the full
        # block; with the seed they are threshold-filtered from the start.
        # Candidates are NOT inserted here (values only, no index select),
        # so the DFS re-verifies the warm leaf without deduplication; the
        # warm pass is a presearch and stays out of the work counters.
        #
        # The seed must survive re-evaluation through a *different* BLAS
        # path: the DFS recomputes the warm leaf's distances with another
        # GEMM shape (or the finisher's GEMV), whose rounding can land a
        # few ulps above this one's.  Inflate by the relative pruning
        # slack plus an absolute dot-product rounding bound so the <=
        # admission can never reject the very point the seed came from.
        # A block the finisher takes whole at the root seeds itself from
        # verified candidates instead (see ``_sweep``), so it skips this.
        slack = dtype.type(FAST_PRUNE_SLACK)
        if B > SCALAR_GROUP_CUTOFF and k <= self._max_leaf:
            seed_eps = (
                Q.shape[1]
                * float(np.finfo(dtype).eps)
                * self._max_point_norm
            ) * qn
            left_np = self._left_np
            right_np = self._right_np
            flat_keys = KT.ravel()
            rows_idx = np.arange(B, dtype=np.int64)
            cur = np.zeros(B, dtype=np.int64)
            while True:
                ln = left_np[cur]
                internal = ln != NO_CHILD
                if not internal.any():
                    break
                rn = right_np[cur]
                # leaf rows gather a garbage key (ln == -1 wraps around);
                # harmless — np.where discards their next-node choice.
                kl = flat_keys[ln * B + rows_idx]
                kr = flat_keys[rn * B + rows_idx]
                cur = np.where(internal, np.where(kl < kr, ln, rn), cur)
            order = np.argsort(cur, kind="stable")
            sorted_nodes = cur[order]
            cuts = np.nonzero(np.diff(sorted_nodes))[0] + 1
            for g in np.split(order, cuts):
                node = int(cur[g[0]])
                s = start_arr[node]
                e = end_arr[node]
                if e - s < k:
                    continue
                Dg = Q.take(g, axis=0) @ points_leaf[s:e].T
                np.abs(Dg, out=Dg)
                THR[g] = (
                    np.partition(Dg, k - 1, axis=1)[:, k - 1] * slack
                    + seed_eps[g]
                )

        budgeted = budget != _INF
        VER = np.zeros(B, dtype=np.int64) if budgeted else None

        nv_arr = np.zeros(B, dtype=np.int64)
        exps_arr = np.zeros(B, dtype=np.int64)
        cand_arr = np.zeros(B, dtype=np.int64)
        nleaves_arr = np.zeros(B, dtype=np.int64)

        offer_rows = kernels.offer_rows

        handed = {}  # query -> the nodes the DFS handed to the finisher
        stack = [(0, np.arange(B, dtype=np.int64))]
        while stack:
            node, qs = stack.pop()
            if budgeted:
                alive = VER.take(qs) < budget
                if not alive.all():
                    qs = qs[alive]
                    if qs.shape[0] == 0:
                        continue
            n = qs.shape[0]
            if n <= SCALAR_GROUP_CUTOFF:
                for q in qs.tolist():
                    handed.setdefault(q, []).append(node)
                continue
            nv_arr[qs] += 1
            # <= (not <): the warm-start threshold is reachable exactly —
            # e.g. k-th distance 0 with node bounds 0 — and pruning the
            # tie would leave the top-k unfilled.
            mask = BT[node].take(qs) <= THR.take(qs) * slack
            nlive = int(mask.sum())
            if nlive == 0:
                continue
            live = qs if nlive == n else qs[mask]
            left = left_child[node]
            if left == NO_CHILD:
                s = start_arr[node]
                e = end_arr[node]
                size = e - s
                nleaves_arr[live] += 1
                cand_arr[live] += size
                if budgeted:
                    VER[live] += size
                if size == 0:
                    continue
                # the cross-query leaf GEMM the exact kernel must not use
                D = Q.take(live, axis=0) @ points_leaf[s:e].T
                np.abs(D, out=D)
                offer_rows(D, live, size, perm[s:e], top_d, top_i, THR)
                continue
            right = right_child[node]
            exps_arr[live] += 1
            # majority branch preference: the whole group descends one way
            left_votes = int(
                np.count_nonzero(KT[left].take(live) < KT[right].take(live))
            )
            if 2 * left_votes >= nlive:
                stack.append((right, live))
                stack.append((left, live))
            else:
                stack.append((left, live))
                stack.append((right, live))

        # -- the finisher: one sweep per query over every subtree the DFS
        # handed it (the whole tree, for a block it takes at the root).
        leaf_lo = self._leaf_lo
        leaf_hi = self._leaf_hi
        for q, nodes in handed.items():
            if budgeted and VER[q] >= budget:
                continue
            leaves = np.concatenate(
                [np.arange(leaf_lo[node], leaf_hi[node]) for node in nodes]
            )
            nv_arr[q] += leaves.shape[0]
            THR[q], nleaves, rows = self._sweep(
                leaves,
                BT[self._leaf_nodes[leaves], q],
                Q[q],
                float(THR[q]),
                budget - int(VER[q]) if budgeted else _INF,
                top_d[q],
                top_i[q],
            )
            nleaves_arr[q] += nleaves
            cand_arr[q] += rows

        # ------------------------------------------------- materialization

        count_ips = centers is not None
        ip_increment = 1 if engine.collaborative_ip else 2
        results = []
        for q in range(B):
            stats = SearchStats()
            stats.nodes_visited = int(nv_arr[q])
            if count_ips:
                stats.center_inner_products = 1 + ip_increment * int(
                    exps_arr[q]
                )
            stats.candidates_verified = int(cand_arr[q])
            stats.leaves_scanned = int(nleaves_arr[q])
            found = int(np.count_nonzero(top_i[q] >= 0))
            results.append(
                SearchResult(
                    indices=top_i[q, :found].copy(),
                    distances=top_d[q, :found].astype(np.float64),
                    stats=stats,
                )
            )
        return results

    # --------------------------------------------------------- the finisher

    def _sweep(self, leaves, bounds, qrow, thr, room, top_d, top_i):
        """Finish one query over the leaves ``leaves`` (leaf indices).

        ``bounds`` holds each leaf's own node bound, ``thr`` the query's
        threshold (``+inf`` before it has one), ``room`` its remaining
        candidate budget, and ``top_d``/``top_i`` its top-k rows, which
        are rewritten in place.  Leaves are admitted in bound order, so
        the ones verified are always a prefix of that order:

        * while ``thr`` is infinite, a seed verifies the best-bound
          leaves until they hold ``k`` points; its distances stay
          candidates, so the seed threshold needs no rounding inflation;
        * the leaves with ``bound <= thr * FAST_PRUNE_SLACK`` (a further
          prefix) are verified in two passes: the first quarter, then,
          with the threshold re-taken from everything found so far,
          the rest that still passes;
        * under a budget, leaves are admitted while the verified count
          is below ``room`` (the last one may overshoot, as in the DFS).

        One ``argpartition`` and one stable ``argsort`` over the old top-k
        plus every candidate then select the new top-k.  Returns the new
        threshold, the leaves verified and the rows verified.
        """
        k = top_d.shape[0]
        order = np.argsort(bounds, kind="stable")
        bounds = bounds[order]
        chosen = leaves[order]
        # filled[j]: the rows in the first j + 1 leaves of the bound order
        filled = np.cumsum(self._leaf_size[chosen])
        stop = chosen.shape[0]
        if room != _INF:
            stop = min(stop, int(np.searchsorted(filled, room)) + 1)
        found_d = [top_d]
        found_i = [top_i]
        pos = 0
        if thr == _INF:
            pos = min(stop, int(np.searchsorted(filled, k)) + 1)
            self._verify(chosen[:pos], qrow, found_d, found_i)
            thr = _kth(found_d, k)
        for first_pass in (True, False):
            end = min(
                stop,
                int(np.searchsorted(bounds, thr * FAST_PRUNE_SLACK, "right")),
            )
            if end <= pos:
                break
            cut = pos + (end - pos + 3) // 4 if first_pass else end
            self._verify(chosen[pos:cut], qrow, found_d, found_i)
            pos = cut
            if first_pass:
                thr = min(thr, _kth(found_d, k))
        if pos == 0:
            return thr, 0, 0
        pool_d = np.concatenate(found_d)
        pool_i = np.concatenate(found_i)
        part = np.argpartition(pool_d, k - 1)[:k]
        best = pool_d[part]
        rank = np.argsort(best, kind="stable")
        top_d[:] = best[rank]
        top_i[:] = pool_i[part[rank]]
        return min(thr, float(top_d[k - 1])), pos, int(filled[pos - 1])

    def _verify(self, chosen, qrow, found_d, found_i):
        """Append the distances and ids of every point in leaves ``chosen``.

        The leaves are verified in leaf order, with one GEMV per
        contiguous run of them.
        """
        if chosen.shape[0] == 0:
            return
        chosen = np.sort(chosen)
        starts = self._leaf_start[chosen]
        ends = self._leaf_end[chosen]
        first = np.ones(chosen.shape[0], dtype=bool)
        np.not_equal(starts[1:], ends[:-1], out=first[1:])
        last = np.ones_like(first)
        last[:-1] = first[1:]
        points_leaf = self._arrays.points_leaf
        perm = self._engine._perm
        for s, e in zip(starts[first].tolist(), ends[last].tolist()):
            dist = points_leaf[s:e] @ qrow
            found_d.append(np.abs(dist, out=dist))
            found_i.append(perm[s:e])


def _kth(found_d, k):
    """The k-th smallest distance in ``found_d`` (+inf if it has fewer)."""
    return float(np.partition(np.concatenate(found_d), k - 1)[k - 1])
