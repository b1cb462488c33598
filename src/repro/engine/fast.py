"""Approximate fast-mode tree kernel: float32 storage, one leaf admission rule.

:class:`FastTreeKernel` is the execution path behind ``exact=False``.  It
answers query blocks over the same flat tree the exact engine walks, but
drops the exact paths' bit-identity contract, which unlocks the
arithmetic the exact :class:`~repro.engine.block.BlockTraversalKernel` must
forgo:

* **Reduced-precision storage.**  The kernel works on a leaf-ordered
  float32 copy of the points plus float32 center/radius (or KD box) arrays
  (:meth:`~repro.engine.traversal.TraversalEngine.fast_arrays`), halving
  memory traffic on every bound and distance evaluation.
* **One admission rule, over the leaves.**  No internal node is expanded.
  Every row reads each leaf's own bound (the ball bound
  ``max(|<q, c>| - ||q|| r, 0)`` or KD's box bound) and admits leaves in
  bound order: a seed verifies the best-bound leaves until they hold ``k``
  points; then the leaves with ``bound <= threshold * FAST_PRUNE_SLACK``
  are verified in two passes, the first quarter, then, with the threshold
  re-taken from everything found so far, the rest that still pass.  Under
  a candidate budget, leaves are admitted while the verified count is
  below it, so at most one leaf overshoots.  The cuts of every pass are
  computed for all rows of a block at once (:meth:`FastTreeKernel._run`).
* **The block height picks only the arithmetic that verifies.**  A block
  of at most :data:`ROW_SWEEP_LIMIT` rows — every one-row ``search``
  included — is verified one row at a time (:class:`_RowSweeps`): one
  GEMV for the row's bounds, one GEMV per contiguous run of the leaves it
  admits, and one top-k selection.  Nothing a row computes there depends
  on its block-mates, so its answer (ids, distance bytes and counters) is
  the same in every block of at most that many rows.  A taller block is
  verified leaf-major (:class:`_LeafMajor`): one GEMM for the bound table,
  then per pass one GEMM per run of consecutive leaves admitted by the
  same rows, and one top-k merge for the whole block.  Those GEMMs round
  a row by its block-mates, so above the limit a row's answer may move by
  float32 rounding with the block it is in.

Approximation contract
----------------------
Results are *near-exact*, not bit-exact.  Distances are computed in the
storage dtype, so candidates whose true distances differ by less than the
float32 rounding error (relative ~1e-6) may swap at the top-k boundary;
leaf admission applies a relative slack of :data:`FAST_PRUNE_SLACK` so a
rounded-up float32 bound cannot drop a leaf the float64 bound would keep.
The property suite and `benchmarks/bench_fast_mode.py` hold the mode to
recall@k >= 0.999 against the exact oracle (recall counted with a 1e-5
relative distance tolerance, the standard epsilon-recall for
reduced-precision ANN).  ``SearchStats`` counters are populated with the
fast traversal's own work counts; they are **not** comparable to the exact
path's counters, and the per-point pruning counters stay zero — fast mode
always verifies whole leaves, which is cheaper than point-level bound
evaluation at float32 GEMM speed.  ``nodes_visited`` counts the leaves
whose bound was read (every non-empty leaf), ``leaves_scanned`` and
``candidates_verified`` the leaves and rows verified, and
``center_inner_products`` is 1 for the center trees (the row's one bound
product) and 0 for KD-Tree.  Fast mode promises that recall, and bitwise
batch invariance only for blocks of at most :data:`ROW_SWEEP_LIMIT` rows.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.results import SearchResult, SearchStats

NO_CHILD = -1

_INF = float("inf")

#: Relative admission slack: a leaf is verified while
#: ``bound <= threshold * FAST_PRUNE_SLACK``.  Float32 bound arithmetic has
#: relative error around 1e-6; the 1e-4 slack makes a wrongly-dropped-by-
#: rounding leaf essentially impossible at the cost of verifying a sliver
#: of extra borderline leaves.
FAST_PRUNE_SLACK = 1.0001

#: Target element count of one sub-block's transient arrays; float32
#: elements, so the leaf tables, the merge buffer and one run's GEMM stay
#: around 32 MB whatever the tree size.
BLOCK_TARGET_ELEMENTS = 8_000_000

#: Upper bound on queries per sub-block.
BLOCK_QUERIES = 4096

#: Blocks of at most this many rows (serve's default ``max_batch``) are
#: verified one row at a time, so a row's answer does not depend on its
#: block-mates; taller blocks run the leaf-major passes.
ROW_SWEEP_LIMIT = 64


class FastTreeKernel:
    """Multi-query approximate leaf search over one fitted traversal engine.

    Built (and cached per storage dtype) by
    :meth:`TraversalEngine.fast_kernel`; holds the engine's
    :class:`~repro.engine.traversal.FastArrays` plus static leaf geometry.
    """

    def __init__(self, engine, dtype: str = "float32") -> None:
        self._engine = engine
        arrays = self._arrays = engine.fast_arrays(dtype)
        self.dtype = arrays.dtype
        # The non-empty leaves in leaf order with their point ranges.
        start = np.asarray(engine._start, dtype=np.int64)
        end = np.asarray(engine._end, dtype=np.int64)
        left = np.asarray(engine._left, dtype=np.int64)
        leaves = np.flatnonzero((left == NO_CHILD) & (end > start))
        leaves = leaves[np.argsort(start[leaves], kind="stable")]
        self._leaf_nodes = leaves
        self._leaf_start = start[leaves]
        self._leaf_end = end[leaves]
        self._leaf_size = self._leaf_end - self._leaf_start
        self._max_leaf = int(self._leaf_size.max(initial=0))
        # gap[j]: leaf j + 1 does not start where leaf j ends, so no GEMM
        # run may span the two.
        self._gap = self._leaf_start[1:] != self._leaf_end[:-1]
        if arrays.centers is not None:
            self._leaf_radii = arrays.radii[leaves]
        else:
            self._leaf_lower = arrays.lower[leaves]
            self._leaf_upper = arrays.upper[leaves]

    # ------------------------------------------------------------------- API

    def search_block(
        self, matrix: np.ndarray, k: int, *, budget: float = _INF
    ) -> List[SearchResult]:
        """Answer every row of the already-normalized query ``matrix``.

        ``matrix`` arrives in float64 from the index's normalization path
        and is cast to the storage dtype here, so bounds, distances and
        thresholds all run in reduced precision.  The candidate ``budget``
        stops admitting leaves once a row's verified count reaches it
        (whole leaves are always verified at once).
        """
        num_queries = matrix.shape[0]
        Q = np.ascontiguousarray(matrix, dtype=self.dtype)
        verifier_cls = (
            _RowSweeps if num_queries <= ROW_SWEEP_LIMIT else _LeafMajor
        )
        block = max(1, min(BLOCK_QUERIES, self._block_queries(k)))
        results: List[SearchResult] = []
        for start in range(0, num_queries, block):
            results.extend(
                self._run(Q[start: start + block], k, budget, verifier_cls)
            )
        return results

    def _block_queries(self, k: int) -> int:
        """Sub-block size bounding the transient memory.

        Per row: the all-node bound product, about a dozen leaf-table
        elements (bounds, order, ranks, cumulative sizes, admission), and a
        worst-case merge buffer of ``k`` float32 distances plus ``k`` int64
        ids per admitted leaf; KD box bounds add three ``(leaves, d)``
        product arrays.
        """
        leaves = self._leaf_size.shape[0]
        per_query = (
            self._engine.num_nodes + 12 * leaves + 3 * k * (leaves + 1)
        )
        if self._arrays.centers is None:
            per_query += 3 * leaves * self._arrays.points_leaf.shape[1]
        return max(1, BLOCK_TARGET_ELEMENTS // per_query)

    # ------------------------------------------------------------ the rule

    def _bounds(self, Q: np.ndarray) -> np.ndarray:
        """The ``(rows, leaves)`` table of every leaf's bound for ``Q``."""
        arrays = self._arrays
        if arrays.centers is None:
            prod_lower = self._leaf_lower[None, :, :] * Q[:, None, :]
            prod_upper = self._leaf_upper[None, :, :] * Q[:, None, :]
            lo = np.minimum(prod_lower, prod_upper).sum(axis=2)
            hi = np.maximum(prod_lower, prod_upper).sum(axis=2)
            straddles = (lo <= 0.0) & (hi >= 0.0)
            return np.where(
                straddles,
                self.dtype.type(0.0),
                np.minimum(np.abs(lo), np.abs(hi)),
            )
        qn = np.sqrt(np.einsum("ij,ij->i", Q, Q, dtype=self.dtype))
        # One product over every node center, of which the leaves' columns
        # are kept: a leaf-only product is no faster, and since OpenBLAS
        # rounds a GEMV row by its offset in the matrix, it would move
        # some one-row bounds by an ulp.
        ips = (Q @ arrays.centers.T).take(self._leaf_nodes, axis=1)
        np.abs(ips, out=ips)
        bounds = ips - qn[:, None] * self._leaf_radii[None, :]
        return np.maximum(bounds, 0.0, out=bounds)

    def _run(self, Q, k, budget, verifier_cls) -> List[SearchResult]:
        """Admit and verify leaves for every row of ``Q``.

        The seed, first-quarter and rest cuts are positions in each row's
        bound order, computed for all rows at once; ``verifier_cls``
        verifies the leaves between two cuts and reports each row's k-th
        distance among all it has verified (+inf below ``k`` points), the
        threshold of the next cut.
        """
        rows = Q.shape[0]
        num_leaves = self._leaf_size.shape[0]
        if verifier_cls is _RowSweeps:
            # one product per row: its bits cannot depend on block-mates
            bounds = np.concatenate(
                [self._bounds(Q[r: r + 1]) for r in range(rows)]
            )
        else:
            bounds = self._bounds(Q)
        order = np.argsort(bounds, axis=1, kind="stable")
        bounds.sort(axis=1)  # the values of bounds[order], in place
        # filled[r, j]: the rows in the first j + 1 leaves of r's order
        filled = np.cumsum(self._leaf_size[order], axis=1)
        stop = num_leaves
        if budget != _INF:
            stop = np.minimum(stop, (filled < budget).sum(axis=1) + 1)
        verifier = verifier_cls(self, Q, order, k)
        pos = np.zeros(rows, dtype=np.int64)
        seed = np.minimum(stop, (filled < k).sum(axis=1) + 1)
        verifier.verify(pos, seed)
        pos = seed
        for first_pass in (True, False):
            limit = verifier.kth() * FAST_PRUNE_SLACK
            end = np.minimum(stop, (bounds <= limit[:, None]).sum(axis=1))
            if first_pass:
                end = (3 * pos + end + 3) // 4  # pos + ceil((end - pos) / 4)
            cut = np.maximum(pos, end)
            verifier.verify(pos, cut)
            pos = cut

        top_d, top_i = verifier.top_k()
        count_ips = int(self._arrays.centers is not None)
        results = []
        for r, scanned in enumerate(pos.tolist()):
            stats = SearchStats(
                nodes_visited=num_leaves,
                center_inner_products=count_ips,
                candidates_verified=int(filled[r, scanned - 1]) if scanned
                else 0,
                leaves_scanned=scanned,
            )
            ids = top_i[r]
            found = int(np.count_nonzero(ids >= 0))
            results.append(
                SearchResult(
                    indices=ids[:found].copy(),
                    distances=top_d[r][:found].astype(np.float64),
                    stats=stats,
                )
            )
        return results


class _RowSweeps:
    """Verify a block one row at a time: a GEMV per contiguous leaf run.

    Each row keeps the distance and id arrays it has verified; the k-th
    distance between passes is read from all of them, and one
    ``argpartition`` plus one stable ``argsort`` over the whole pool select
    the row's top-k once, at the end.
    """

    def __init__(self, kernel, Q, order, k):
        self._kernel = kernel
        self._Q = Q
        self._order = order
        self._k = k
        # every pool starts from k empty slots (read-only, so shared)
        empty_d = np.full(k, _INF, dtype=kernel.dtype)
        empty_i = np.full(k, -1, dtype=np.int64)
        self._found_d = [[empty_d] for _ in range(len(Q))]
        self._found_i = [[empty_i] for _ in range(len(Q))]
        self._kth = np.full(len(Q), _INF)
        self._grown = []  # rows verified since the last kth()

    def verify(self, lo, hi):
        """Verify ``order[r, lo[r]:hi[r]]`` per row."""
        for r, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            if b > a:
                self._verify(
                    self._order[r, a:b], self._Q[r], self._found_d[r],
                    self._found_i[r],
                )
                self._grown.append(r)

    def kth(self):
        """Every row's k-th distance among all it has verified."""
        k = self._k
        for r in self._grown:
            pool = np.concatenate(self._found_d[r])
            self._kth[r] = np.partition(pool, k - 1)[k - 1]
        self._grown = []
        return self._kth

    def _verify(self, chosen, qrow, found_d, found_i):
        """Append the distances and ids of every point in leaves ``chosen``,
        in leaf order, with one GEMV per contiguous run of them."""
        kernel = self._kernel
        chosen = np.sort(chosen)
        starts = kernel._leaf_start[chosen]
        ends = kernel._leaf_end[chosen]
        first = np.ones(chosen.shape[0], dtype=bool)
        np.not_equal(starts[1:], ends[:-1], out=first[1:])
        last = np.ones_like(first)
        last[:-1] = first[1:]
        points_leaf = kernel._arrays.points_leaf
        perm = kernel._engine._perm
        for s, e in zip(starts[first].tolist(), ends[last].tolist()):
            dist = points_leaf[s:e] @ qrow
            found_d.append(np.abs(dist, out=dist))
            found_i.append(perm[s:e])

    def top_k(self):
        """Per row, the ascending top-k distances and their ids."""
        k = self._k
        top_d, top_i = [], []
        for found_d, found_i in zip(self._found_d, self._found_i):
            pool_d = np.concatenate(found_d)
            part = np.argpartition(pool_d, k - 1)[:k]
            best = pool_d[part]
            rank = np.argsort(best, kind="stable")
            top_d.append(best[rank])
            top_i.append(np.concatenate(found_i)[part[rank]])
        return top_d, top_i


class _LeafMajor:
    """Verify a block leaf by leaf: a GEMM per run of leaves and rows.

    A pass admits, per row, a range of positions in the row's bound order.
    Consecutive leaves admitted by the same rows form one run, verified by
    one ``Q[rows] @ points_leaf[s:e].T`` GEMM of which each row keeps its
    ``k`` best.  After the pass the candidates of every run are merged into
    the block's running top-k at once: sorted stably by row, scattered into
    a ``(rows, 1 + runs, k)`` buffer whose slot 0 holds the current top-k,
    then one ``argpartition`` and one stable ``argsort``.
    """

    def __init__(self, kernel, Q, order, k):
        self._kernel = kernel
        self._Q = Q
        self._k = k
        rows, num_leaves = order.shape
        # rank[leaf, r]: the position of leaf in row r's bound order
        rank = np.empty((rows, num_leaves), dtype=np.int64)
        np.put_along_axis(
            rank, order, np.broadcast_to(np.arange(num_leaves), order.shape),
            axis=1,
        )
        self._rank = np.ascontiguousarray(rank.T)
        self._top_d = np.full((rows, k), _INF, dtype=kernel.dtype)
        self._top_i = np.full((rows, k), -1, dtype=np.int64)

    def kth(self):
        """Every row's k-th distance among all it has verified."""
        return self._top_d[:, self._k - 1].astype(np.float64)

    def verify(self, lo, hi):
        """Verify ``order[r, lo[r]:hi[r]]`` for every row ``r`` at once."""
        kernel = self._kernel
        k = self._k
        Q = self._Q
        admit = (self._rank >= lo) & (self._rank < hi)
        active = admit.any(axis=1)
        if not active.any():
            return
        # A run starts where the admitted rows change or the points do not
        # continue, and every ``span`` leaves, so one GEMM stays within
        # the element target.
        num_leaves = admit.shape[0]
        starts = np.ones(num_leaves, dtype=bool)
        starts[1:] = (admit[1:] != admit[:-1]).any(axis=1) | kernel._gap
        span = max(
            1, BLOCK_TARGET_ELEMENTS // (4 * Q.shape[0] * kernel._max_leaf)
        )
        if span < num_leaves:
            leaf = np.arange(num_leaves)
            run_start = np.flatnonzero(starts)[np.cumsum(starts) - 1]
            starts |= (leaf - run_start) % span == 0
        edges = np.flatnonzero(starts).tolist() + [num_leaves]
        leaf_start = kernel._leaf_start.tolist()
        leaf_end = kernel._leaf_end.tolist()
        points_leaf = kernel._arrays.points_leaf
        perm = kernel._engine._perm
        # each row's k-th distance so far, tightened by every run that
        # gives it k candidates: a row whose best candidate misses it
        # gains nothing from a run
        kth = self._top_d[:, k - 1].copy()
        found_rows, found_d, found_i = [], [], []
        for j0, j1 in zip(edges[:-1], edges[1:]):
            if not active[j0]:
                continue
            rows = np.flatnonzero(admit[j0])
            s = leaf_start[j0]
            e = leaf_end[j1 - 1]
            block = Q if rows.shape[0] == Q.shape[0] else Q[rows]
            D = block @ points_leaf[s:e].T
            np.abs(D, out=D)
            live = D.min(axis=1) <= kth[rows]
            if not live.all():
                if not live.any():
                    continue
                D = D[live]
                rows = rows[live]
            ids = perm[s:e]
            if e - s > k:
                part = np.argpartition(D, k - 1, axis=1)[:, :k]
                part += (np.arange(D.shape[0]) * (e - s))[:, None]
                D = D.take(part)
                ids = ids.take(part % (e - s))
                kth[rows] = np.minimum(kth[rows], D.max(axis=1))
            else:
                pad = ((0, 0), (0, k - (e - s)))
                D = np.pad(D, pad, constant_values=_INF)
                ids = np.pad(
                    np.broadcast_to(ids, (D.shape[0], e - s)), pad,
                    constant_values=-1,
                )
            found_rows.append(rows)
            found_d.append(D)
            found_i.append(ids)
        if found_rows:
            self._merge(found_rows, found_d, found_i)

    def _merge(self, found_rows, found_d, found_i):
        """Fold every run's ``(rows, k)`` candidates into the top-k."""
        k = self._k
        rows = self._top_d.shape[0]
        owner = np.concatenate(found_rows)
        by_row = np.argsort(owner, kind="stable")
        owner = owner[by_row]
        counts = np.bincount(owner, minlength=rows)
        first = np.cumsum(counts) - counts  # each row's first candidate
        slot = np.arange(owner.shape[0]) - first[owner] + 1
        slots = 1 + int(counts.max())
        buf_d = np.full((rows, slots, k), _INF, dtype=self._top_d.dtype)
        buf_i = np.full((rows, slots, k), -1, dtype=np.int64)
        buf_d[:, 0] = self._top_d
        buf_i[:, 0] = self._top_i
        buf_d[owner, slot] = np.concatenate(found_d)[by_row]
        buf_i[owner, slot] = np.concatenate(found_i)[by_row]
        buf_d = buf_d.reshape(rows, slots * k)
        buf_i = buf_i.reshape(rows, slots * k)
        part = np.argpartition(buf_d, k - 1, axis=1)[:, :k]
        best = np.take_along_axis(buf_d, part, axis=1)
        rank = np.argsort(best, axis=1, kind="stable")
        self._top_d = np.take_along_axis(best, rank, axis=1)
        self._top_i = np.take_along_axis(
            buf_i, np.take_along_axis(part, rank, axis=1), axis=1
        )

    def top_k(self):
        """Per row, the ascending top-k distances and their ids."""
        return self._top_d, self._top_i
