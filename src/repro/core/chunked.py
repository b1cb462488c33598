"""Chunked, memory-bounded builds for the tree families.

``P2HIndex.fit`` materializes the full augmented matrix, builds the tree
over it, and stores the leaf-ordered copy — three ``O(n * d)`` residents at
peak.  :func:`chunked_fit` builds the *same kind* of tree while holding
only a caller-capped number of rows in RAM at any moment, so an index
several times larger than the budget can be constructed and (with the mmap
backend) served:

1. The input is a *row source* (:func:`repro.storage.as_row_source`):
   ideally a path to a ``.npy`` file, read with plain file I/O so the
   source never enters the process's resident set.
2. Nodes larger than the budget are split *streaming*: node summaries
   (centroid/radius, or the KD box) and the split assignment are computed
   in cost-balanced chunk passes (:func:`repro.storage.balanced_chunks`)
   over the node's rows; only the ``int64`` permutation is resident.
3. Once a node fits the budget, its rows are gathered and the family's
   ordinary in-RAM builder runs on them; the finished subtree is grafted
   into the global node arrays, and its leaf-ordered rows are spilled to
   the index's :class:`~repro.storage.base.ArrayStore` through a
   :class:`~repro.storage.base.RowWriter` as the subtree finalizes.
4. BC-Tree's per-point leaf structures (descending-``r_x`` re-sort, ball
   and cone components) are computed in a bounded post-pass that reads
   each leaf block back from the spilled store — the same per-leaf pass
   ``BCTree.fit`` runs on its resident matrix.

The resulting index serves through the exact same engine paths as a
resident ``fit`` — with a budget of at least ``n`` rows the build reduces
to the standard one (identical tree, identical leaf bytes).  Under a
smaller budget the tree's *shape* differs (streamed splits pick pivots
from a sample, and centers of streamed internal nodes are computed
directly rather than via Lemma 1), but exact search results are identical
by construction: exactness never depends on the tree shape, only pruning
efficiency does.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.distances import augment_points
from repro.core.splits import seed_grow_pivots
from repro.core.tree_base import NO_CHILD, TreeArrays, build_tree
from repro.storage import as_row_source, balanced_chunks, rows_in_budget
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer

#: Most sample rows drawn for a streamed node's seed-grow pivots.
_PIVOT_SAMPLE_ROWS = 4096


def chunked_fit(index, source, *, memory_budget_mb: float = 256.0):
    """Fit a tree index from ``source`` under a row-memory budget.

    Parameters
    ----------
    index:
        An unfitted (or refittable) tree-family index — ``BallTree``,
        ``BCTree``, ``RPTree``, or ``KDTree``.  Its ``storage`` spec
        decides where the leaf-ordered copy is spilled; combine with
        ``storage="mmap"`` for a fully out-of-core build.
    source:
        Anything :func:`repro.storage.as_row_source` accepts — a path to
        a ``.npy`` file (recommended: rows are read with plain file I/O,
        so the source stays out of the resident set), a 2-D array, or a
        custom reader.  Raw ``(n, d-1)`` rows by default; augmented rows
        with ``augment=False`` on the index.
    memory_budget_mb:
        Approximate cap on the point rows held resident at once, in MiB.
        The budget is split between the in-RAM subtree builds (which copy
        their slice a couple of times) and the streaming pass buffers.

    Returns
    -------
    The fitted ``index``.
    """
    family = _family_of(index)
    budget_bytes = int(float(memory_budget_mb) * (1 << 20))
    if budget_bytes <= 0:
        raise ValueError(
            f"memory_budget_mb must be positive, got {memory_budget_mb}"
        )

    src = as_row_source(source)
    rows_total, raw_dim = src.shape
    if rows_total < 1:
        raise ValueError("points must contain at least one row")
    dim = raw_dim + 1 if index.augment else raw_dim
    if dim < 2:
        raise ValueError(f"points must have at least one coordinate, got d={dim}")

    # Budget split: an in-budget subtree holds three copies of its rows at
    # peak: the gathered rows plus build_tree's working copy and scratch
    # matrix while it builds (a KD subtree: the rows plus one per-node
    # gather), then the gathered rows plus the leaf-ordered spill block.
    # Streaming passes hold one chunk.
    subtree_rows = max(2, rows_in_budget(budget_bytes // 4, dim))
    pass_rows = max(1, rows_in_budget(budget_bytes // 8, dim))

    index._mutation_version = getattr(index, "_mutation_version", 0) + 1
    index._engine_cache = None
    with Timer() as timer:
        _validate_source(src, index.augment, pass_rows)
        _build_chunked(
            index, family, src, rows_total, dim, subtree_rows, pass_rows
        )
    index.indexing_seconds = timer.elapsed
    if isinstance(source, (str, bytes)) or hasattr(src, "close"):
        src.close()
    return index


# ----------------------------------------------------------------- families


def _family_of(index) -> str:
    """Which build rules ``index`` needs (subclass order matters)."""
    from repro.core.ball_tree import BallTree
    from repro.core.bc_tree import BCTree
    from repro.core.kd_tree import KDTree
    from repro.core.rp_tree import RPTree

    if isinstance(index, RPTree):
        return "rp"
    if isinstance(index, BCTree):
        return "bc"
    if isinstance(index, BallTree):
        return "ball"
    if isinstance(index, KDTree):
        return "kd"
    raise TypeError(
        f"chunked_fit supports the tree families (BallTree, BCTree, "
        f"RPTree, KDTree); got {type(index).__name__}"
    )


def _build_chunked(index, family, src, n, d, subtree_rows, pass_rows) -> None:
    augment = index.augment
    leaf_size = index.leaf_size
    rng = ensure_rng(getattr(index, "random_state", None))

    store = index.storage.create_store()
    writer = store.writer("points_leaf", (n, d))

    perm = np.arange(n, dtype=np.int64)
    ball_like = family in ("ball", "bc", "rp")
    centers: List[np.ndarray] = []
    radii: List[float] = []
    lowers: List[np.ndarray] = []
    uppers: List[np.ndarray] = []
    starts: List[int] = []
    ends: List[int] = []
    lefts: List[int] = []
    rights: List[int] = []

    def allocate(start: int, end: int) -> int:
        node_id = len(starts)
        if ball_like:
            centers.append(np.zeros(d))
            radii.append(0.0)
        else:
            lowers.append(np.zeros(d))
            uppers.append(np.zeros(d))
        starts.append(start)
        ends.append(end)
        lefts.append(NO_CHILD)
        rights.append(NO_CHILD)
        return node_id

    def load(indices: np.ndarray) -> np.ndarray:
        rows = np.asarray(src.gather(indices), dtype=np.float64)
        return augment_points(rows) if augment else rows

    stack = [allocate(0, n)]
    while stack:
        node = stack.pop()
        start, end = starts[node], ends[node]
        size = end - start

        if size <= subtree_rows:
            # In budget: gather, build the subtree in RAM, graft, spill.
            indices = perm[start:end]
            rows = load(indices)
            if family == "kd":
                from repro.core.kd_tree import build_kd_tree

                sub = build_kd_tree(rows, leaf_size)
            else:
                sub = build_tree(
                    rows,
                    leaf_size,
                    rng=rng,
                    centers_from_children=(family == "bc"),
                    split_fn=_subtree_split_fn(family),
                )
            perm[start:end] = indices[sub.perm]
            writer.write(start, rows[sub.perm])
            _graft(
                sub, node, start, ball_like,
                centers, radii, lowers, uppers,
                starts, ends, lefts, rights,
            )
            continue

        # Over budget: summarize and split in streaming passes.
        if ball_like:
            center = _streaming_mean(load, perm, start, end, pass_rows, d)
            centers[node] = center
            radii[node] = _streaming_radius(
                load, perm, start, end, pass_rows, center
            )
            if family == "rp":
                mid = _streamed_rp_split(
                    load, perm, start, end, pass_rows, rng, d
                )
            else:
                mid = _streamed_seed_grow_split(
                    load, perm, start, end, pass_rows, rng
                )
        else:
            lower, upper = _streaming_min_max(load, perm, start, end, pass_rows, d)
            lowers[node] = lower
            uppers[node] = upper
            spreads = upper - lower
            axis = int(np.argmax(spreads))
            if spreads[axis] <= 0.0:
                # All points identical: an (oversized) leaf; spill the rows
                # chunk by chunk — no subtree will ever cover this slice.
                for lo, hi in balanced_chunks(size, pass_rows):
                    writer.write(start + lo, load(perm[start + lo: start + hi]))
                continue
            mid = _streamed_kd_split(load, perm, start, end, pass_rows, axis)

        left = allocate(start, mid)
        right = allocate(mid, end)
        lefts[node] = left
        rights[node] = right
        stack.append(right)
        stack.append(left)

    if ball_like:
        index.tree = TreeArrays.from_node_lists(
            centers, radii, starts, ends, lefts, rights, perm
        )
    else:
        from repro.core.kd_tree import _KDArrays

        index.tree = _KDArrays(
            lower=np.asarray(lowers),
            upper=np.asarray(uppers),
            start=np.asarray(starts, dtype=np.int64),
            end=np.asarray(ends, dtype=np.int64),
            left_child=np.asarray(lefts, dtype=np.int64),
            right_child=np.asarray(rights, dtype=np.int64),
            perm=perm,
        )

    if family == "bc":
        index._build_leaf_structures(
            lambda lo, hi: np.asarray(writer.read(lo, hi), dtype=np.float64),
            writer.write,
        )

    writer.close()
    index._store = store
    index._points = None
    index._fitted = True
    index.num_points = n
    index.dim = d


def _subtree_split_fn(family: str):
    if family == "rp":
        from repro.core.rp_tree import random_projection_split

        return random_projection_split
    return None  # build_tree defaults to the paper's seed-grow rule


def _graft(
    sub, node, start, ball_like,
    centers, radii, lowers, uppers, starts, ends, lefts, rights,
) -> None:
    """Splice a subtree built over rows ``[start, ...)`` into the arrays.

    The subtree's root refills the already-allocated ``node``; its
    remaining nodes are appended, with child pointers remapped by
    ``sub_id -> base + sub_id - 1`` and row ranges shifted by ``start``.
    """
    base = len(starts)

    def mapped(child: int) -> int:
        if child == NO_CHILD:
            return NO_CHILD
        return node if child == 0 else base + child - 1

    if ball_like:
        centers[node] = sub.centers[0]
        radii[node] = float(sub.radii[0])
    else:
        lowers[node] = sub.lower[0]
        uppers[node] = sub.upper[0]
    starts[node] = start + int(sub.start[0])
    ends[node] = start + int(sub.end[0])
    lefts[node] = mapped(int(sub.left_child[0]))
    rights[node] = mapped(int(sub.right_child[0]))

    num_sub = int(sub.start.shape[0])
    for j in range(1, num_sub):
        if ball_like:
            centers.append(sub.centers[j])
            radii.append(float(sub.radii[j]))
        else:
            lowers.append(sub.lower[j])
            uppers.append(sub.upper[j])
        starts.append(start + int(sub.start[j]))
        ends.append(start + int(sub.end[j]))
        lefts.append(mapped(int(sub.left_child[j])))
        rights.append(mapped(int(sub.right_child[j])))


# ---------------------------------------------------------- streaming passes


def _streaming_mean(load, perm, start, end, pass_rows, d) -> np.ndarray:
    total = np.zeros(d, dtype=np.float64)
    size = end - start
    for lo, hi in balanced_chunks(size, pass_rows):
        total += load(perm[start + lo: start + hi]).sum(axis=0)
    return total / size


def _streaming_radius(load, perm, start, end, pass_rows, center) -> float:
    radius = 0.0
    for lo, hi in balanced_chunks(end - start, pass_rows):
        rows = load(perm[start + lo: start + hi])
        radius = max(
            radius, float(np.max(np.linalg.norm(rows - center, axis=1)))
        )
    return radius


def _streaming_min_max(load, perm, start, end, pass_rows, d):
    lower = np.full(d, np.inf)
    upper = np.full(d, -np.inf)
    for lo, hi in balanced_chunks(end - start, pass_rows):
        rows = load(perm[start + lo: start + hi])
        np.minimum(lower, rows.min(axis=0), out=lower)
        np.maximum(upper, rows.max(axis=0), out=upper)
    return lower, upper


def _positional_mid(perm, start, end) -> int:
    return start + (end - start) // 2


def _apply_split(perm, start, end, left_idx, right_idx) -> int:
    """Write a two-way partition back into ``perm``; returns the boundary.

    Falls back to a positional split when one side is empty (duplicates
    collapsing on a pivot), mirroring the in-RAM split rules' guarantee
    that construction always makes progress.
    """
    if left_idx.size == 0 or right_idx.size == 0:
        return _positional_mid(perm, start, end)
    perm[start: start + left_idx.size] = left_idx
    perm[start + left_idx.size: end] = right_idx
    return start + left_idx.size


def _streamed_seed_grow_split(load, perm, start, end, pass_rows, rng) -> int:
    """Seed-grow split with sampled pivots and a streamed assignment.

    The in-RAM rule picks pivots by scanning the whole node twice; here
    the pivots come from a bounded sample (the far-pair property degrades
    gracefully under sampling), and the pivot-distance assignment streams
    over the node in chunks.
    """
    size = end - start
    sample_size = min(size, max(2, min(pass_rows, _PIVOT_SAMPLE_ROWS)))
    sample_pos = rng.choice(size, size=sample_size, replace=False)
    sample = load(perm[start + np.sort(sample_pos)])
    left_pivot, right_pivot = seed_grow_pivots(sample, rng)
    if left_pivot == right_pivot or np.allclose(
        sample[left_pivot], sample[right_pivot]
    ):
        return _positional_mid(perm, start, end)
    pivot_left = sample[left_pivot]
    pivot_right = sample[right_pivot]

    left_parts: List[np.ndarray] = []
    right_parts: List[np.ndarray] = []
    for lo, hi in balanced_chunks(size, pass_rows):
        indices = perm[start + lo: start + hi]
        rows = load(indices)
        to_left = (
            np.linalg.norm(rows - pivot_left, axis=1)
            <= np.linalg.norm(rows - pivot_right, axis=1)
        )
        left_parts.append(indices[to_left])
        right_parts.append(indices[~to_left])
    return _apply_split(
        perm, start, end,
        np.concatenate(left_parts), np.concatenate(right_parts),
    )


def _streamed_rp_split(load, perm, start, end, pass_rows, rng, d) -> int:
    """Random-projection split with the projections computed in chunks.

    The 1-D projection vector (8 bytes/row) is the only full-node
    resident; the jittered-median threshold matches the in-RAM rule.
    """
    size = end - start
    direction = rng.normal(size=d)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction = np.ones(d)
        norm = float(np.linalg.norm(direction))
    direction /= norm

    projections = np.empty(size, dtype=np.float64)
    for lo, hi in balanced_chunks(size, pass_rows):
        projections[lo:hi] = load(perm[start + lo: start + hi]) @ direction
    lower, upper = np.percentile(projections, [25.0, 75.0])
    if upper > lower:
        threshold = float(rng.uniform(lower, upper))
    else:
        threshold = float(np.median(projections))
    to_left = projections <= threshold
    return _apply_split(
        perm, start, end,
        perm[start:end][to_left], perm[start:end][~to_left],
    )


def _streamed_kd_split(load, perm, start, end, pass_rows, axis) -> int:
    """Median split on ``axis`` with the column gathered in chunks."""
    size = end - start
    values = np.empty(size, dtype=np.float64)
    for lo, hi in balanced_chunks(size, pass_rows):
        values[lo:hi] = load(perm[start + lo: start + hi])[:, axis]
    order = np.argsort(values, kind="stable")
    perm[start:end] = perm[start:end][order]
    return _positional_mid(perm, start, end)


# ---------------------------------------------------------------- validation


def _validate_source(src, augment: bool, pass_rows: int) -> None:
    """Streamed equivalent of ``check_points_matrix`` + augmentation check."""
    n = src.shape[0]
    for lo, hi in balanced_chunks(n, max(pass_rows, 4096)):
        rows = np.asarray(src.read(lo, hi), dtype=np.float64)
        if not np.isfinite(rows).all():
            raise ValueError(
                f"points must be finite; rows [{lo}, {hi}) contain "
                "NaN or infinity"
            )
        if not augment and not np.all(rows[:, -1] == 1.0):
            raise ValueError(
                "augment=False requires points whose last column is all ones"
            )
