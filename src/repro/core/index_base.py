"""Common interface shared by every P2HNNS index in the library.

All indexes — Ball-Tree, BC-Tree, KD-Tree, the linear scan, and the NH/FH
hashing baselines — implement the same small contract:

* ``fit(points)`` builds the index over augmented points ``x = (p; 1)``.
* ``search(query, k, ...)`` returns a :class:`~repro.core.results.SearchResult`
  holding the top-k nearest points to the hyperplane together with work
  counters.
* ``batch_search(queries, k, n_jobs=...)`` runs many queries through the
  query-execution engine (:mod:`repro.engine`) and returns a
  :class:`~repro.engine.batch.BatchSearchResult` — a sequence of per-query
  results plus pooled statistics and batch timing.  Results are
  bit-identical to sequential ``search`` for every ``n_jobs``.
* ``index_size_bytes()`` reports the memory footprint of the index payload
  (Table III's "Size" column).
* ``save(path)`` / ``load(path)`` persist the fitted index.

The base class also owns the augmented data matrix, dimension checks,
indexing-time bookkeeping, and the cached
:class:`~repro.engine.traversal.TraversalEngine` for tree indexes, so
concrete indexes only implement ``_build`` and ``_search_one`` (tree
indexes: ``_make_engine`` and ``_block_search``, see
:class:`LeafStoredPointsMixin`).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.distances import augment_points, is_augmented, normalize_query
from repro.core.results import SearchResult
from repro.engine.batch import BatchSearchResult, execute_batch
from repro.engine.block import attach_block_timing
from repro.storage import StorageSpec
from repro.utils.persistence import dump_index_payload, load_typed_index
from repro.utils.timing import Timer
from repro.utils.validation import check_points_matrix, check_query_vector


class NotFittedError(RuntimeError):
    """Raised when ``search`` is called before ``fit``."""


class P2HIndex:
    """Abstract base class for point-to-hyperplane nearest-neighbor indexes.

    Parameters
    ----------
    augment:
        If True (default), ``fit`` treats its input as *raw* points in
        ``R^{d-1}`` and appends the constant 1 coordinate.  If False, the
        input is assumed to already be augmented (last column all ones).
    normalize_queries:
        If True (default), queries are rescaled so the hyperplane normal has
        unit norm before searching; the returned distances are then true
        geometric P2H distances.
    storage:
        Where the large point arrays live — anything
        :meth:`repro.storage.StorageSpec.coerce` accepts (``None``/"ram"
        for the default resident float64, ``"float32"`` for a
        reduced-precision resident copy, ``"mmap"`` for memory-mapped
        ``.npy`` files).  Tree geometry always stays resident.
    """

    def __init__(
        self,
        *,
        augment: bool = True,
        normalize_queries: bool = True,
        storage=None,
    ):
        self.augment = bool(augment)
        self.normalize_queries = bool(normalize_queries)
        self.storage = StorageSpec.coerce(storage)
        self._store = None
        self._fitted = False
        self._points: Optional[np.ndarray] = None
        self.num_points: int = 0
        self.dim: int = 0
        self.indexing_seconds: float = 0.0
        self._engine_cache = None
        # Bumped by every (re)fit; long-lived process pools (the
        # repro.api.Searcher session) compare it to detect that their
        # pickled worker-side snapshot of the index went stale.
        self._mutation_version: int = 0

    # ------------------------------------------------------------------ API

    def fit(self, points: np.ndarray) -> "P2HIndex":
        """Build the index over ``points``.

        Parameters
        ----------
        points:
            Shape ``(n, d-1)`` raw points (default) or ``(n, d)`` augmented
            points when ``augment=False``.

        Returns
        -------
        P2HIndex
            ``self``, to allow ``Index(...).fit(data)`` chaining.
        """
        pts = check_points_matrix(points, name="points")
        if self.augment:
            pts = augment_points(pts)
        elif not is_augmented(pts):
            raise ValueError(
                "augment=False requires points whose last column is all ones"
            )
        self._points = pts
        self._fitted = True
        self.num_points, self.dim = pts.shape
        self._engine_cache = None
        self._mutation_version = getattr(self, "_mutation_version", 0) + 1
        with Timer() as timer:
            self._build(pts)
            self._store_points(pts)
        self.indexing_seconds = timer.elapsed
        return self

    def search(self, query: np.ndarray, k: int = 1, **kwargs) -> SearchResult:
        """Return the top-``k`` nearest points to the hyperplane ``query``.

        Parameters
        ----------
        query:
            Hyperplane coefficients of shape ``(d,)`` — the first ``d-1``
            entries are the normal vector, the last is the offset.
        k:
            Number of neighbors to return.
        kwargs:
            Index-specific search options (e.g. ``candidate_fraction`` for
            the trees, ``max_candidates`` for the hashing baselines).
        """
        self._check_fitted()
        q = check_query_vector(query, expected_dim=self.dim, name="query")
        if self.normalize_queries:
            q = normalize_query(q)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(int(k), self.num_points)
        with Timer() as timer:
            result = self._search_one(q, k, **kwargs)
        result.stats.elapsed_seconds = timer.elapsed
        return result

    def batch_search(
        self,
        queries: np.ndarray,
        k: int = 1,
        *,
        n_jobs: Optional[int] = None,
        executor: str = "thread",
        **kwargs,
    ) -> BatchSearchResult:
        """Answer every row of ``queries`` through the execution engine.

        Parameters
        ----------
        queries:
            Query matrix of shape ``(q, d)`` (a single vector is promoted).
        k:
            Top-k size for every query.
        n_jobs:
            Worker-pool size; ``None`` or 1 runs inline.
        executor:
            ``"thread"`` (default) or ``"process"`` — see
            :func:`repro.engine.batch.execute_batch`.
        kwargs:
            Index-specific search options, forwarded to every query.

        Returns
        -------
        BatchSearchResult
            Sequence of per-query results (bit-identical to sequential
            :meth:`search` calls) plus pooled stats and wall/CPU timing.

        Notes
        -----
        Indexes that expose a vectorized ``_batch_kernel`` (the tree
        families and the hashing baselines) are answered in whole-block
        kernel calls instead of per-query dispatch; the engine chunks the
        block across the worker pool, and results stay bit-identical for
        every ``n_jobs`` because the kernels are per-row independent and
        ``search`` runs the same kernel on one row.
        """
        return execute_batch(
            self, queries, k, n_jobs=n_jobs, executor=executor, **kwargs
        )

    def index_size_bytes(self) -> int:
        """Memory footprint of the index payload in bytes.

        The base implementation counts only what subclasses report via
        :meth:`_payload_arrays`; the raw data matrix is *not* counted, to
        mirror the paper's "index size" (which excludes the data set itself).
        """
        self._check_fitted()
        return int(sum(arr.nbytes for arr in self._payload_arrays()))

    # ------------------------------------------------------------ persistence

    def save(self, path) -> None:
        """Serialize the fitted index (including data) to ``path``.

        The file is a versioned payload (see
        :mod:`repro.utils.persistence`) stamped with the declarative spec
        dictionary when the index was built through
        :func:`repro.api.build_index`, so :func:`repro.api.load_index` can
        reconstruct any family without knowing the class up front.  The
        header also records the storage dtype of the persisted data matrix
        (readable via :func:`repro.api.saved_storage_dtype` without
        unpickling the index).
        """
        self._check_fitted()
        store = self._ensure_store()
        dump_index_payload(
            path,
            self,
            spec=getattr(self, "_api_spec", None),
            storage_dtype=store.dtype,
            storage=store.to_header(),
            stores=self._array_stores(),
        )

    @classmethod
    def load(cls, path) -> "P2HIndex":
        """Load an index previously stored with :meth:`save`."""
        return load_typed_index(path, cls)

    # --------------------------------------------------------------- helpers

    def _prepare_query_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Normalize a pre-validated query block exactly as :meth:`search` does.

        Vectorized batch kernels (indexes exposing ``_batch_kernel``; see
        :func:`repro.engine.batch.execute_batch`) run whole query blocks
        without going through :meth:`search`.  The engine has already
        promoted and finiteness-checked the block with
        :func:`~repro.utils.validation.check_query_matrix` (validating
        again here would re-scan the whole matrix per chunk), so only the
        index-specific dimension check remains, and normalization runs the
        same per-row kernel :meth:`search` uses — keeping blocked execution
        bit-identical to sequential calls.
        """
        self._check_fitted()
        if matrix.shape[1] != self.dim:
            raise ValueError(
                f"query must have dimension {self.dim}, got {matrix.shape[1]}"
            )
        if not self.normalize_queries or matrix.shape[0] == 0:
            return matrix
        return np.vstack([normalize_query(row) for row in matrix])

    @property
    def points(self) -> np.ndarray:
        """The augmented data matrix the index was fitted on.

        Tree families keep only the leaf-ordered copy resident, so this
        property *reconstructs* the un-permuted matrix on demand (and does
        not cache it — callers on the hot path go through the engine's
        leaf-ordered arrays instead).  The dtype is the storage dtype.
        """
        self._check_fitted()
        if self._points is not None:
            return self._points
        return self._rebuild_points()

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before it can be used"
            )

    # --------------------------------------------------------------- storage

    def _store_points(self, pts: np.ndarray) -> None:
        """Hand the fitted point matrix to the index's array store.

        The default keeps the (possibly dtype-cast) matrix addressable as
        ``self._points`` — an identity operation for the default resident
        float64 spec.  Tree families override this to keep only the
        leaf-ordered copy (see :class:`LeafStoredPointsMixin`).
        """
        self._store = self.storage.create_store()
        self._points = self._store.put("points", pts)

    def _rebuild_points(self) -> np.ndarray:
        """Reconstruct the un-permuted matrix when it is not resident."""
        raise NotFittedError(
            f"{type(self).__name__} must be fitted before it can be used"
        )

    def _ensure_store(self):
        """The index's array store, creating one for legacy pickles."""
        if self._store is None:
            self._store = self.storage.create_store()
            self._adopt_legacy_arrays(self._store)
        return self._store

    def _adopt_legacy_arrays(self, store) -> None:
        """Move pre-storage-layer resident arrays into a fresh store."""
        if self._points is not None:
            self._points = store.put("points", self._points)

    def _array_stores(self):
        """Every store backing this index (composites override to recurse)."""
        store = self._store
        return [store] if store is not None else []

    def to_storage(self, storage) -> "P2HIndex":
        """Migrate the fitted point arrays to a different storage backend.

        Used by :class:`repro.api.Searcher` to convert a resident index to
        mmap before spawning process workers (workers then re-open the map
        instead of receiving pickled array bytes).  Returns ``self``.
        Note a float32 store cannot recover float64 precision — migrating
        back up-casts the already-rounded values.
        """
        self._check_fitted()
        spec = StorageSpec.coerce(storage)
        old = self._ensure_store()
        if spec == old.spec:
            return self
        new = spec.create_store()
        new.copy_from(old, old.names())
        self._store = new
        self.storage = spec
        if self._points is not None and "points" in new:
            self._points = new.get("points")
        # The engine holds references into the old store's arrays.
        self._engine_cache = None
        return self

    def _engine(self):
        """The cached :class:`TraversalEngine`, built lazily after ``fit``.

        The cache is keyed on :meth:`_engine_signature`, so mutating a
        search-relevant public attribute (e.g. BC-Tree's bound flags)
        after a search transparently rebuilds the engine instead of
        silently keeping the stale configuration.
        """
        signature = self._engine_signature()
        cached = self._engine_cache
        if cached is not None and cached[0] == signature:
            return cached[1]
        engine = self._make_engine()
        self._engine_cache = (signature, engine)
        return engine

    def _engine_signature(self) -> tuple:
        """Search-relevant attributes the engine bakes in at build time."""
        return ()

    def __getstate__(self):
        # The engine is a derived structure (plain-list mirrors of the tree
        # arrays); drop it from pickles and rebuild lazily after load.
        state = dict(self.__dict__)
        state["_engine_cache"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Pre-storage-layer pickles: fittedness was "has a point matrix",
        # storage was implicitly resident float64, and no store existed.
        if "_fitted" not in state:
            self._fitted = state.get("_points") is not None
        if "storage" not in state:
            self.storage = StorageSpec()
        if "_store" not in state:
            self._store = None

    # ------------------------------------------------------------- overrides

    def _build(self, points: np.ndarray) -> None:
        """Build index structures over the augmented ``points``."""
        raise NotImplementedError

    def _search_one(self, query: np.ndarray, k: int, **kwargs) -> SearchResult:
        """Answer a single normalized query."""
        raise NotImplementedError

    def _make_engine(self):
        """Build the traversal engine (tree indexes only)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not use a traversal engine"
        )

    def _payload_arrays(self) -> Sequence[np.ndarray]:
        """Arrays that constitute the index payload (for size accounting)."""
        return ()


class LeafStoredPointsMixin:
    """Point storage and search entry points for tree indexes.

    Storage: one leaf-ordered resident copy.

    Tree traversal only ever reads leaf-contiguous slices, so the
    leaf-ordered copy (``points[tree.perm]``) is the *only* copy these
    indexes keep — stored under ``"points_leaf"`` in the index's array
    store.  The un-permuted matrix is reconstructed lazily by the
    :attr:`~P2HIndex.points` property (used by ``NodeView`` inspection
    and composite rebuilds), never cached, so a fitted tree index holds
    one ``(n, d)`` array resident instead of the historical two.

    Search: ``search`` and ``batch_search`` both run the block traversal
    kernel (:mod:`repro.engine.block`) through the family's
    ``_block_search(matrix, k, **options)``, which checks the options and
    answers an already-normalized query block — one row for ``search``.

    Mix in *before* :class:`P2HIndex` so the ``_store_points`` override
    wins.
    """

    #: Build-time memory budget in MiB; set by :func:`repro.api.build_index`
    #: for specs carrying ``memory_budget_mb``.  ``fit`` honors it by
    #: delegating to :meth:`fit_chunked`.
    memory_budget_mb: Optional[float] = None

    def _store_points(self, pts: np.ndarray) -> None:
        self._store = self.storage.create_store()
        self._store.put("points_leaf", pts[self.tree.perm])
        self._points = None

    def fit(self, points):
        """Build the index; a set :attr:`memory_budget_mb` routes the build
        through the memory-bounded chunked path (same fitted contract —
        bit-identical to the resident build whenever the budget covers the
        data)."""
        if self.memory_budget_mb is not None:
            return self.fit_chunked(
                points, memory_budget_mb=self.memory_budget_mb
            )
        return super().fit(points)

    def fit_chunked(self, points, *, memory_budget_mb: float = 256.0):
        """Build this index under a row-memory budget (out-of-core path).

        ``points`` may be a path to a ``.npy`` file (recommended — rows
        are then read with plain file I/O and never become resident), a
        2-D array, or any row source
        :func:`repro.storage.as_row_source` accepts.  With a budget of at
        least ``n`` rows this is bit-identical to :meth:`~P2HIndex.fit`;
        see :func:`repro.core.chunked.chunked_fit`.
        """
        from repro.core.chunked import chunked_fit

        return chunked_fit(self, points, memory_budget_mb=memory_budget_mb)

    def _search_one(self, query: np.ndarray, k: int, **options) -> SearchResult:
        """Branch-and-bound top-k search: the block kernel on one row."""
        return self._block_search(query[None, :], k, **options)[0]

    def _batch_kernel(
        self, queries: np.ndarray, k: int, **options
    ) -> List[SearchResult]:
        """Answer a whole query block with the kernel :meth:`_search_one`
        runs, so results and work counters equal sequential ``search``."""
        wall_tic = time.perf_counter()
        matrix = self._prepare_query_matrix(queries)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(int(k), self.num_points)
        results = self._block_search(matrix, k, **options)
        attach_block_timing(results, time.perf_counter() - wall_tic)
        return results

    def _adopt_legacy_arrays(self, store) -> None:
        if self._points is not None:
            store.put("points_leaf", self._points[self.tree.perm])
            self._points = None

    def _leaf_points(self) -> np.ndarray:
        """The leaf-ordered point matrix the traversal engine reads."""
        self._check_fitted()
        return self._ensure_store().get("points_leaf")

    def _rebuild_points(self) -> np.ndarray:
        leaf = self._leaf_points()
        perm = self.tree.perm
        inverse = np.empty(perm.shape[0], dtype=np.int64)
        inverse[perm] = np.arange(perm.shape[0], dtype=np.int64)
        return np.asarray(leaf)[inverse]
