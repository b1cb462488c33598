"""Dynamic P2HNNS index supporting inserts and deletes.

The paper's Ball-Tree and BC-Tree are static, bulk-built structures.  A
downstream user of the library (e.g. an active-learning loop that keeps
labeling and removing points, Section I) needs an index that stays correct
under updates without paying a full rebuild per update.  This module wraps
any static :class:`~repro.core.index_base.P2HIndex` with the standard
*main index + delta buffer + tombstones* scheme:

* **Inserts** land in a brute-force buffer: one growing array of augmented
  rows with its ids and live mask, scored exactly at query time by one
  inner-product pass (the buffer is tiny compared to the main index).
* **Deletes** clear a boolean live mask over the static index's positions
  (or over the buffer's rows); ids are located by binary search, since
  they are issued in increasing order and a rebuild keeps that order.
  A search asks the static index for ``k`` plus a margin proportional to
  its deleted share (exactly ``k`` while nothing is deleted), drops the
  deleted positions, and fetches again at ``k + deleted`` only when too
  few live points survived, so answers stay exact for any deletion
  pattern.
* When the buffer rows (deleted ones included) plus the deleted points
  exceed a configurable fraction of the indexed points, the structure is
  **rebuilt** from scratch (Ball-Tree / BC-Tree construction is roughly
  linear, so periodic rebuilds keep the amortized update cost low — this
  is precisely the "lightweight construction" property the paper
  emphasizes).

The static points are kept **once**.  When the static index stores
float64 rows (``ram`` or ``mmap`` storage), its own array store is the
only copy: :meth:`~DynamicP2HIndex.point` and the rebuild read the
inserted rows back from it, bit for bit.  A float32 store (``float32``,
``mmap32``) rounds them, so the wrapper then keeps a raw float64 copy of
the static rows beside it.  A loaded payload that holds such a copy over
a float64 store keeps it until its next rebuild.

The wrapper exposes the same ``search`` contract as the static indexes and
adds ``insert`` / ``delete`` / ``rebuild``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro.core.distances import augment_points, normalize_query
from repro.core.factories import DefaultBCTreeFactory
from repro.core.index_base import NotFittedError, P2HIndex
from repro.core.results import SearchResult, SearchStats, TopKCollector
from repro.engine.batch import BatchSearchResult, execute_batch
from repro.engine.block import attach_block_timing
from repro.storage import StorageSpec, combined_storage_header, take_rows
from repro.utils.persistence import dump_index_payload, load_typed_index
from repro.utils.validation import check_points_matrix, check_query_vector


class DynamicP2HIndex:
    """Insert/delete-capable wrapper around a static P2HNNS index.

    Parameters
    ----------
    index_factory:
        Zero-argument callable returning a fresh, unfitted static index
        (default: ``BCTree()``).  A new instance is created at every rebuild.
    rebuild_threshold:
        Rebuild when ``(buffered inserts + tombstoned deletes)`` exceeds this
        fraction of the points currently owned by the static index
        (default 0.25).
    auto_rebuild:
        If False, rebuilds only happen when :meth:`rebuild` is called
        explicitly; queries remain correct either way.

    Notes
    -----
    Point identifiers are stable: every inserted point receives a
    monotonically increasing integer id, and search results report these ids
    (not positions inside the current static index).

    ``search`` is :meth:`batch_search`'s kernel on a one-row block.  Exact
    batches are bit-identical to sequential ``search`` for every
    ``n_jobs``.  Fast batches (``exact=False``) follow the tree families'
    fast contract: the static index's fast kernel sees the whole block, so
    in a block of at most :data:`repro.engine.fast.ROW_SWEEP_LIMIT` rows a
    row answers exactly as its one-row ``search`` does, while above that
    a row may depend on its block-mates; either way it stays within
    :func:`repro.eval.epsilon_recall` 1.0 of the exact answer.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.dynamic import DynamicP2HIndex
    >>> rng = np.random.default_rng(0)
    >>> index = DynamicP2HIndex(random_state=0)
    >>> ids = index.insert(rng.normal(size=(200, 8)))
    >>> more = index.insert(rng.normal(size=(50, 8)))
    >>> index.delete(ids[:10])
    10
    >>> result = index.search(rng.normal(size=9), k=5)
    >>> len(result)
    5
    """

    def __init__(
        self,
        index_factory: Optional[Callable[[], P2HIndex]] = None,
        *,
        rebuild_threshold: float = 0.25,
        auto_rebuild: bool = True,
        random_state=None,
    ) -> None:
        if rebuild_threshold <= 0.0:
            raise ValueError(
                f"rebuild_threshold must be positive, got {rebuild_threshold}"
            )
        if index_factory is None:
            index_factory = DefaultBCTreeFactory(random_state)
        self.index_factory = index_factory
        self.rebuild_threshold = float(rebuild_threshold)
        self.auto_rebuild = bool(auto_rebuild)

        self._set_static(None, np.empty(0, dtype=np.int64), None)
        self._clear_buffer()
        self._next_id: int = 0
        self.num_rebuilds: int = 0
        # Bumped on every state change; long-lived process pools (the
        # repro.api.Searcher session) compare it to detect that their
        # worker-side snapshot of the index went stale and must be rebuilt.
        self._mutation_version: int = 0

    def _set_static(
        self,
        index: Optional[P2HIndex],
        ids: np.ndarray,
        points: Optional[np.ndarray],
    ) -> None:
        """Install a static index whose ids are ``ids``.

        ``points`` is the raw copy of its rows, or None when the index's
        own store holds them exactly (:func:`_stores_exact_rows`).
        """
        self._static_index = index
        # Ids in position order (sorted), the raw copy, and which are live.
        self._static_ids = ids
        self._static_points = points
        self._static_live = np.ones(ids.size, dtype=bool)
        self._static_dead = 0

    def _clear_buffer(self) -> None:
        # Ids (sorted), augmented rows and live mask of the buffered points.
        self._buffer_ids = np.empty(0, dtype=np.int64)
        self._buffer_rows = np.empty((0, 0))
        self._buffer_live = np.empty(0, dtype=bool)
        self._buffer_dead = 0

    def __setstate__(self, state) -> None:
        if "_tombstones" not in state:
            self.__dict__.update(state)
            return
        # Saved by a version that kept a tombstone set and per-row buffer
        # lists: replay them onto the live masks and buffer arrays.
        tombstones = state.pop("_tombstones")
        buffer_ids = state.pop("_buffer_ids")
        buffer_points = state.pop("_buffer_points")
        self.__dict__.update(state)
        self._set_static(self._static_index, self._static_ids, self._static_points)
        self._clear_buffer()
        if buffer_points:
            self._append_buffer(
                np.asarray(buffer_ids, dtype=np.int64), np.vstack(buffer_points)
            )
        self._mark_deleted(list(tombstones))

    # ------------------------------------------------------------ properties

    @property
    def num_points(self) -> int:
        """Number of live (inserted and not deleted) points."""
        return int(self._static_ids.size + self._buffer_ids.size) - self.num_tombstones

    @property
    def dim(self) -> Optional[int]:
        """Raw point dimension (``d - 1``), or None before the first insert."""
        if self._static_points is not None:
            return int(self._static_points.shape[1])
        if self._static_index is not None:
            return int(self._static_index.dim) - 1
        if self._buffer_ids.size:
            return int(self._buffer_rows.shape[1] - 1)
        return None

    @property
    def buffer_size(self) -> int:
        """Number of points waiting in the brute-force insert buffer."""
        return int(self._buffer_ids.size)

    @property
    def num_tombstones(self) -> int:
        """Number of deleted points not yet purged by a rebuild."""
        return self._static_dead + self._buffer_dead

    # ------------------------------------------------------------------ API

    def insert(self, points: np.ndarray) -> np.ndarray:
        """Insert one or more raw points; returns their assigned ids."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        pts = check_points_matrix(pts, name="points")
        expected = self.dim
        if expected is not None and pts.shape[1] != expected:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, expected {expected}"
            )
        ids = np.arange(self._next_id, self._next_id + pts.shape[0], dtype=np.int64)
        self._next_id += pts.shape[0]
        self._append_buffer(ids, pts)
        self._mutation_version += 1
        self._maybe_rebuild()
        return ids

    def delete(self, ids) -> int:
        """Delete points by id; returns the number of points actually removed."""
        removed = self._mark_deleted(ids)
        if removed:
            self._mutation_version += 1
        self._maybe_rebuild()
        return removed

    def search(self, query: np.ndarray, k: int = 1, **search_kwargs) -> SearchResult:
        """Top-``k`` P2HNNS over all live points (static index + buffer)."""
        q = check_query_vector(query, name="query")
        return self._batch_kernel(q[None, :], k, **search_kwargs)[0]

    def batch_search(
        self,
        queries: np.ndarray,
        k: int = 1,
        *,
        n_jobs: Optional[int] = None,
        executor: str = "thread",
        **search_kwargs,
    ) -> BatchSearchResult:
        """Run :meth:`search` for every row of ``queries``.

        Dispatched through :func:`repro.engine.batch.execute_batch`, so
        exact results are bit-identical to sequential per-query calls for
        every ``n_jobs`` (see the class notes for ``exact=False``).
        """
        return execute_batch(
            self, queries, k, n_jobs=n_jobs, executor=executor, **search_kwargs
        )

    def _batch_kernel(
        self, queries: np.ndarray, k: int, **search_kwargs
    ) -> List[SearchResult]:
        """Answer a query block: the static index's kernel plus the buffer.

        The block is normalized once, row by row.  The static index
        answers those rows in one ``_block_search`` call at the margin
        fetch size (:meth:`_search_static`), and every row then scores the
        live buffer rows, gathered once per block, with its own GEMV over
        the same normalized row — the product a one-row search computes,
        so each row's buffer answer does not depend on its block-mates.
        """
        wall_tic = time.perf_counter()
        if self.num_points == 0:
            raise NotFittedError("the dynamic index contains no points")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(int(k), self.num_points)
        if queries.shape[1] != self.dim + 1:
            raise ValueError(
                f"query must have dimension {self.dim + 1}, "
                f"got {queries.shape[1]}"
            )
        matrix = np.empty(queries.shape)
        for row, query in enumerate(queries):
            matrix[row] = normalize_query(query)
        stats = [SearchStats() for _ in range(matrix.shape[0])]
        collectors = [TopKCollector(k) for _ in range(matrix.shape[0])]
        for collector, (ids, distances) in zip(
            collectors, self._search_static(matrix, k, stats, search_kwargs)
        ):
            for point_id, dist in zip(ids.tolist(), distances.tolist()):
                collector.offer(point_id, dist)

        # Insert buffer: exact scan of the live rows.
        if self._buffer_ids.size:
            live = self._buffer_live
            rows = self._buffer_rows[live]
            ids = self._buffer_ids[live]
            for q, collector, row_stats in zip(matrix, collectors, stats):
                distances = np.abs(rows @ q)
                collector.offer_batch(ids, distances)
                row_stats.candidates_verified += int(distances.size)

        results = [
            collector.to_result(row_stats)
            for collector, row_stats in zip(collectors, stats)
        ]
        attach_block_timing(results, time.perf_counter() - wall_tic)
        return results

    def _kernel_indexes(self) -> List[P2HIndex]:
        """The indexes whose kernel :meth:`_batch_kernel` calls: the static
        index, while it holds a live point."""
        if self._static_ids.size == self._static_dead:
            return []
        return [self._static_index]

    def _search_static(self, matrix, k, stats, search_kwargs):
        """Per row, ids and distances of the static index's top-``k`` live points.

        The first fetch asks for ``k + ceil(k * deleted / live) + 1`` (just
        ``k`` while nothing is deleted) for the whole block; the rows with
        fewer than ``min(k, live)`` live points among theirs are fetched
        again, in one more kernel call, at ``k + deleted``, which always
        holds that many.  ``stats`` (one per row) accumulates every fetch.
        """
        size = int(self._static_ids.size)
        live = size - self._static_dead
        if live == 0:
            empty = (np.empty(0, dtype=np.int64), np.empty(0))
            return [empty] * matrix.shape[0]
        full = min(size, k + self._static_dead)
        fetch = full
        if self._static_dead:
            margin = (k * self._static_dead + live - 1) // live + 1
            fetch = min(full, k + margin)
        kernel = self._static_index._block_search
        results = kernel(matrix, fetch, **search_kwargs)
        if fetch < full:
            short = [
                row for row, result in enumerate(results)
                if np.count_nonzero(self._static_live[result.indices])
                < min(k, live)
            ]
            if short:
                refetched = kernel(matrix[short], full, **search_kwargs)
                for row, result in zip(short, refetched):
                    stats[row].merge(results[row].stats)
                    results[row] = result
        answers = []
        for row_stats, result in zip(stats, results):
            row_stats.merge(result.stats)
            keep = self._static_live[result.indices]
            answers.append(
                (self._static_ids[result.indices[keep]], result.distances[keep])
            )
        return answers

    def rebuild(self) -> None:
        """Fold the buffer and purge tombstones into a freshly built index.

        The live rows are gathered into one matrix, the old index is
        released, and a fresh one from ``index_factory`` is fitted on the
        matrix.  The matrix is then dropped if the new index's store holds
        the rows exactly (float64 storage), and kept as the raw copy if
        not (float32 storage, or a static family without a row store).
        """
        self._mutation_version += 1
        live_points, live_ids = self._live_points()
        # Release the old tree and rows before fitting, so a rebuild never
        # holds them beside the new ones.  The gathered rows stand in as
        # the raw copy until the new index holds them.
        self._set_static(None, live_ids, live_points if live_ids.size else None)
        self._clear_buffer()
        if live_ids.size:
            self._static_index = self.index_factory().fit(live_points)
            if _stores_exact_rows(self._static_index):
                self._static_points = None
            self.num_rebuilds += 1

    # ------------------------------------------------------------ persistence

    def save(self, path) -> None:
        """Persist the full dynamic state (static index, buffer, tombstones).

        The file uses the same versioned payload format as every static
        index (:mod:`repro.utils.persistence`), so
        :func:`repro.api.load_index` reconstructs it without knowing the
        class up front.  ``index_factory`` is pickled along — the default
        factory and the API layer's spec factory are picklable; a custom
        ``lambda`` factory is not and raises here.
        """
        stores = self._array_stores()
        header = combined_storage_header(stores)
        dump_index_payload(
            path,
            self,
            spec=getattr(self, "_api_spec", None),
            storage_dtype=header["dtype"] if header else "float64",
            storage=header,
            stores=stores,
        )

    def _array_stores(self):
        """The static sub-index's stores (buffer rows stay resident)."""
        if self._static_index is None:
            return []
        return list(self._static_index._array_stores())

    def to_storage(self, storage) -> "DynamicP2HIndex":
        """Migrate the static sub-index's point arrays (buffer stays RAM).

        A float32 store rounds the rows, so moving down to one first takes
        the raw copy out of the float64 store, and :meth:`point` keeps
        returning the inserted rows exactly.  Moving back up to float64
        keeps the copy; the next :meth:`rebuild` refits through
        ``index_factory``, whose own ``storage`` configuration then
        applies, and drops the copy if that store is float64.
        """
        index = self._static_index
        if index is None:
            return self
        if (
            self._static_points is None
            and StorageSpec.coerce(storage).dtype != "float64"
        ):
            size = int(self._static_ids.size)
            self._static_points = self._take_static(
                np.arange(size), np.empty((size, self.dim))
            )
        index.to_storage(storage)
        return self

    @classmethod
    def load(cls, path) -> "DynamicP2HIndex":
        """Load a dynamic index previously stored with :meth:`save`."""
        return load_typed_index(path, cls)

    def point(self, point_id: int) -> np.ndarray:
        """Return the raw coordinates of a live point by id.

        The inserted float64 row, bit for bit: a buffered point's from the
        buffer, a static point's from the raw copy when one is held, else
        from the static index's float64 store.  Only that row is read.
        """
        point_id = int(point_id)
        wanted = np.array([point_id], dtype=np.int64)
        for ids, live, take in (
            (self._static_ids, self._static_live, self._take_static),
            (self._buffer_ids, self._buffer_live, self._take_buffered),
        ):
            found = _positions(ids, wanted)
            if found.size:
                if not live[found[0]]:
                    raise KeyError(f"point {point_id} has been deleted")
                return take(found, np.empty((1, self.dim)))[0]
        raise KeyError(f"unknown point id {point_id}")

    # ------------------------------------------------------------ internals

    def _append_buffer(self, ids: np.ndarray, points: np.ndarray) -> None:
        rows = augment_points(points)
        if self._buffer_ids.size:
            rows = np.vstack([self._buffer_rows, rows])
        self._buffer_rows = rows
        self._buffer_ids = np.concatenate([self._buffer_ids, ids])
        self._buffer_live = np.concatenate(
            [self._buffer_live, np.ones(ids.size, dtype=bool)]
        )

    def _mark_deleted(self, ids) -> int:
        """Clear the live flag of every listed id; returns how many were live."""
        requested = np.unique(np.asarray(ids, dtype=np.int64))
        static = _clear_live(self._static_ids, self._static_live, requested)
        buffered = _clear_live(self._buffer_ids, self._buffer_live, requested)
        self._static_dead += static
        self._buffer_dead += buffered
        return static + buffered

    def _take_static(self, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Raw static rows at ``positions`` into ``out``: from the raw copy
        when one is held, else from the static index's own store."""
        if self._static_points is not None:
            return take_rows(self._static_points, positions, out)
        return self._static_index._gather_points(positions, out)

    def _take_buffered(self, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Raw buffer rows at ``positions`` into ``out`` (the augmented
        coordinate dropped)."""
        return take_rows(self._buffer_rows, positions, out)

    def _live_points(self):
        """Raw rows and ids of every live point, static ones first."""
        static = np.flatnonzero(self._static_live)
        buffered = np.flatnonzero(self._buffer_live)
        ids = np.concatenate([self._static_ids[static], self._buffer_ids[buffered]])
        points = np.empty((ids.size, self.dim or 0))
        # Gather straight into ``points``: a rebuild then holds one copy of
        # the live rows, not two.
        if static.size:
            self._take_static(static, points[:static.size])
        if buffered.size:
            self._take_buffered(buffered, points[static.size:])
        return points, ids

    def _maybe_rebuild(self) -> None:
        if not self.auto_rebuild:
            return
        base = max(int(self._static_ids.size), 1)
        pending = self.buffer_size + self.num_tombstones
        if self._static_index is None or pending > self.rebuild_threshold * base:
            self.rebuild()


def _stores_exact_rows(index) -> bool:
    """Whether ``index``'s own store returns its fitted rows bit for bit:
    a :class:`P2HIndex` over augmented float64 rows (``ram`` or ``mmap``)."""
    return (
        isinstance(index, P2HIndex)
        and index.augment
        and index.storage.dtype == "float64"
    )


def _positions(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions in the sorted ``ids`` of the ``wanted`` ids it holds."""
    pos = np.searchsorted(ids, wanted)
    held = pos < ids.size
    pos = pos[held]
    return pos[ids[pos] == wanted[held]]


def _clear_live(ids: np.ndarray, live: np.ndarray, wanted: np.ndarray) -> int:
    """Clear ``live`` at the unique ``wanted`` ids; returns how many were live."""
    pos = _positions(ids, wanted)
    pos = pos[live[pos]]
    live[pos] = False
    return int(pos.size)
