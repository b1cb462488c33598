"""Partitioned P2HNNS index for scalable / sharded search.

Section III-A of the paper motivates Ball-Tree partly because "as it is a
space partition method, we can leverage it to split massive data sets into
fine granularities for scalable and distributed P2HNNS".  This module is
that layer: it shards the data into disjoint partitions, builds one static
index (Ball-Tree, BC-Tree, or any other :class:`P2HIndex`) per shard, and
answers queries by searching every shard and merging the per-shard top-k
lists.

Three partitioning strategies are provided:

* ``"contiguous"`` — split the input in order into equal-size blocks
  (mirrors range-sharding of a stored data set).
* ``"round_robin"`` — deal points to shards one by one (balances any
  ordering bias in the input).
* ``"ball"`` — recursively apply the paper's own seed-grow split until the
  requested number of shards is reached, so each shard is spatially
  coherent and its index prunes better (the "fine granularities" the paper
  refers to).

Exactness: with no per-shard budget the merged result equals the result of
a single index over the full data, because every shard searches exhaustively
within its own points.  Per-shard candidate budgets turn the structure into
an approximate index whose recall/time trade-off is measured by
``benchmarks/bench_partitioned_scaling.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.factories import DefaultBCTreeFactory
from repro.core.index_base import NotFittedError, P2HIndex
from repro.core.results import SearchResult, SearchStats, TopKCollector
from repro.core.splits import seed_grow_split
from repro.engine.batch import BatchSearchResult, execute_batch, pool_results
from repro.storage import combined_storage_header
from repro.utils.persistence import dump_index_payload, load_typed_index
from repro.utils.rng import ensure_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_points_matrix, check_positive_int

PARTITION_STRATEGIES = ("contiguous", "round_robin", "ball")


def merge_shard_row(
    shard_rows: Sequence[SearchResult],
    shard_point_ids: Sequence[np.ndarray],
    k: int,
) -> TopKCollector:
    """Reference merge of one query's per-shard top-k lists (shard order).

    This is the loop the per-query :meth:`PartitionedP2HIndex.search` runs
    and the semantics the vectorized batch merge must reproduce: offer each
    shard's (already sorted) row to one bounded collector, in shard order,
    so ties at the k-th distance resolve by the collector's arrival/eviction
    rules.  The batch path falls back to it for the rare rows with a tie at
    the top-k boundary, where a plain stable selection could keep a
    different tied id than the collector's heap does.
    """
    collector = TopKCollector(k)
    for result, ids in zip(shard_rows, shard_point_ids):
        collector.offer_batch(ids[result.indices], result.distances)
    return collector


def merge_shard_batches(
    shard_batches: Sequence[BatchSearchResult],
    shard_point_ids: Sequence[np.ndarray],
    k: int,
    num_queries: int,
    stats_list: Optional[List[SearchStats]] = None,
) -> List[SearchResult]:
    """Vectorized per-query merge of per-shard top-k batches.

    The block counterpart of :func:`merge_shard_row`: given one
    :class:`BatchSearchResult` per shard (every shard answered the same
    ``num_queries`` queries) and the shard-local→global id maps, produce
    the merged global top-``k`` row per query — **bit-identical** to
    offering each shard's row to a :class:`TopKCollector` in shard order.
    Exposed at module level so the distributed scatter-gather router
    (:mod:`repro.cluster`) merges gathered shard responses with the exact
    computation :meth:`PartitionedP2HIndex._batch_kernel` runs in process.

    Replaces the per-row ``TopKCollector``-over-all-shards loop (which
    dominated wall time for large batches with many shards) with block
    operations over the shard-concatenated distance matrix:

    * each shard row is already sorted ascending by ``(distance, id)``
      and holds at most ``k`` entries, so the collector's arrival order
      equals concatenation order — one *stable* argsort by distance
      over the concatenated row reproduces it exactly;
    * when the k-th and (k+1)-th sorted distances differ, the kept set
      is exactly "every entry at or below the k-th distance" for both
      the collector and the stable selection, and the final ascending
      ``(distance, id)`` order is what ``TopKCollector.to_result``
      emits;
    * only rows with an exact distance tie *at the boundary* can
      diverge (the collector's heap evicts the smallest-id tied entry,
      not the latest-arrived); those rare rows fall back to the
      reference collector merge.

    ``stats_list`` carries one pre-merged :class:`SearchStats` per query;
    when None (the router's case — gathered responses carry no work
    counters), fresh empty stats are attached instead.
    """
    if stats_list is None:
        # Per-row pooled stats: same shard-order merge the per-query
        # loop performs.
        stats_list = []
        for row in range(num_queries):
            stats = SearchStats()
            for batch in shard_batches:
                stats.merge(batch[row].stats)
            stats_list.append(stats)

    dist_blocks = []
    id_blocks = []
    for batch, ids in zip(shard_batches, shard_point_ids):
        distances = batch.distances_matrix(fill=np.inf)
        if distances.shape[1] == 0:
            continue
        # Pad with local id 0 (the shard is non-empty); padded slots
        # carry an infinite distance and are dropped after selection.
        local = batch.indices_matrix(fill=0)
        dist_blocks.append(distances)
        id_blocks.append(ids[local])
    if not dist_blocks:
        return [
            SearchResult(
                indices=np.empty(0, dtype=np.int64),
                distances=np.empty(0, dtype=np.float64),
                stats=stats,
            )
            for stats in stats_list
        ]

    dist_cat = np.concatenate(dist_blocks, axis=1)
    id_cat = np.concatenate(id_blocks, axis=1)
    width = dist_cat.shape[1]
    order = np.argsort(dist_cat, axis=1, kind="stable")
    dist_sorted = np.take_along_axis(dist_cat, order, axis=1)
    id_sorted = np.take_along_axis(id_cat, order, axis=1)
    kk = min(k, width)
    if width > kk:
        boundary_tie = dist_sorted[:, kk - 1] == dist_sorted[:, kk]
        boundary_tie &= np.isfinite(dist_sorted[:, kk - 1])
    else:
        boundary_tie = np.zeros(num_queries, dtype=bool)
    top_d = dist_sorted[:, :kk]
    top_i = id_sorted[:, :kk]
    # Final output order is ascending (distance, id): two stable
    # argsorts (id first, then distance) are a per-row lexsort.
    id_order = np.argsort(top_i, axis=1, kind="stable")
    top_d = np.take_along_axis(top_d, id_order, axis=1)
    top_i = np.take_along_axis(top_i, id_order, axis=1)
    d_order = np.argsort(top_d, axis=1, kind="stable")
    top_d = np.take_along_axis(top_d, d_order, axis=1)
    top_i = np.take_along_axis(top_i, d_order, axis=1)
    lengths = np.isfinite(top_d).sum(axis=1).tolist()

    results: List[SearchResult] = []
    for row in range(num_queries):
        if boundary_tie[row]:
            collector = merge_shard_row(
                [batch[row] for batch in shard_batches],
                shard_point_ids,
                k,
            )
            results.append(collector.to_result(stats_list[row]))
            continue
        length = lengths[row]
        results.append(
            SearchResult(
                indices=np.ascontiguousarray(top_i[row, :length]),
                distances=np.ascontiguousarray(top_d[row, :length]),
                stats=stats_list[row],
            )
        )
    return results


def partition_indices(
    points: np.ndarray,
    num_partitions: int,
    strategy: str = "ball",
    *,
    rng=None,
) -> List[np.ndarray]:
    """Split ``range(n)`` into ``num_partitions`` disjoint index arrays.

    Parameters
    ----------
    points:
        The raw data matrix ``(n, d-1)``; only used by the ``"ball"``
        strategy (the other two depend only on ``n``).
    num_partitions:
        Number of shards; must be between 1 and ``n``.
    strategy:
        One of ``"contiguous"``, ``"round_robin"``, ``"ball"``.
    rng:
        Seed or generator for the ``"ball"`` strategy's seed-grow splits.
    """
    pts = check_points_matrix(points, name="points")
    n = pts.shape[0]
    num_partitions = check_positive_int(num_partitions, name="num_partitions")
    if num_partitions > n:
        raise ValueError(
            f"num_partitions={num_partitions} exceeds the number of points ({n})"
        )
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
        )

    all_indices = np.arange(n, dtype=np.int64)
    if strategy == "contiguous":
        return [np.ascontiguousarray(chunk) for chunk in np.array_split(all_indices, num_partitions)]
    if strategy == "round_robin":
        return [all_indices[offset::num_partitions].copy() for offset in range(num_partitions)]

    # "ball": repeatedly split the largest shard with the seed-grow rule.
    rng = ensure_rng(rng)
    shards: List[np.ndarray] = [all_indices]
    while len(shards) < num_partitions:
        largest = max(range(len(shards)), key=lambda i: shards[i].size)
        shard = shards.pop(largest)
        if shard.size < 2:
            # Cannot split further; fall back to peeling one point off.
            shards.append(shard[:1])
            shards.append(shard[1:])
            continue
        left_rows, right_rows = seed_grow_split(pts[shard], rng)
        shards.append(shard[left_rows])
        shards.append(shard[right_rows])
    return shards


class PartitionedP2HIndex:
    """Sharded P2HNNS index: one sub-index per partition, merged top-k.

    Parameters
    ----------
    num_partitions:
        Number of shards to build (default 4).
    index_factory:
        Zero-argument callable returning a fresh, unfitted static index for
        each shard (default: ``BCTree()``).
    strategy:
        Partitioning strategy (see :func:`partition_indices`).
    random_state:
        Seed for the ``"ball"`` strategy and the default sub-index factory.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.partitioned import PartitionedP2HIndex
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(600, 16))
    >>> index = PartitionedP2HIndex(num_partitions=4, random_state=0).fit(data)
    >>> result = index.search(rng.normal(size=17), k=10)
    >>> len(result)
    10
    """

    def __init__(
        self,
        num_partitions: int = 4,
        *,
        index_factory: Optional[Callable[[], P2HIndex]] = None,
        strategy: str = "ball",
        random_state=None,
    ) -> None:
        self.num_partitions = check_positive_int(num_partitions, name="num_partitions")
        if strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
            )
        if index_factory is None:
            index_factory = DefaultBCTreeFactory(random_state)
        self.index_factory = index_factory
        self.strategy = strategy
        self.random_state = random_state

        self.shards: List[P2HIndex] = []
        self.shard_point_ids: List[np.ndarray] = []
        self.num_points: int = 0
        self.dim: int = 0
        self.indexing_seconds: float = 0.0
        # Bumped by every (re)fit; see P2HIndex for the session contract.
        self._mutation_version: int = 0

    # ------------------------------------------------------------------ API

    def fit(self, points: np.ndarray) -> "PartitionedP2HIndex":
        """Partition ``points`` and build one sub-index per shard."""
        pts = check_points_matrix(points, name="points")
        self.num_points = pts.shape[0]
        self.dim = pts.shape[1] + 1
        self._mutation_version += 1
        with Timer() as timer:
            shard_ids = partition_indices(
                pts, self.num_partitions, self.strategy, rng=self.random_state
            )
            self.shard_point_ids = shard_ids
            self.shards = []
            for ids in shard_ids:
                sub_index = self.index_factory()
                sub_index.fit(pts[ids])
                self.shards.append(sub_index)
        self.indexing_seconds = timer.elapsed
        return self

    def search(self, query: np.ndarray, k: int = 1, **search_kwargs) -> SearchResult:
        """Search every shard and merge the per-shard top-k lists."""
        self._check_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(int(k), self.num_points)

        stats = SearchStats()
        collector = TopKCollector(k)
        with Timer() as timer:
            for sub_index, ids in zip(self.shards, self.shard_point_ids):
                shard_k = min(k, int(ids.size))
                result = sub_index.search(query, k=shard_k, **search_kwargs)
                stats.merge(result.stats)
                global_ids = ids[result.indices]
                collector.offer_batch(global_ids, result.distances)
        merged = collector.to_result(stats)
        merged.stats.elapsed_seconds = timer.elapsed
        return merged

    def batch_search(
        self,
        queries: np.ndarray,
        k: int = 1,
        *,
        n_jobs: Optional[int] = None,
        executor: str = "thread",
        **search_kwargs,
    ) -> BatchSearchResult:
        """Answer every row of ``queries`` through the execution engine.

        Dispatched through :func:`repro.engine.batch.execute_batch`, so
        the results are bit-identical to sequential per-query search for
        every ``n_jobs`` (see :meth:`_batch_kernel`).
        """
        return execute_batch(
            self, queries, k, n_jobs=n_jobs, executor=executor, **search_kwargs
        )

    def _batch_kernel(
        self, queries: np.ndarray, k: int, **search_kwargs
    ) -> List[SearchResult]:
        """Answer a query block: every shard's kernel, then one block merge.

        Each shard answers the whole block with its own kernel, and the
        per-shard top-k lists are merged per query by
        :func:`merge_shard_batches` (a stable sort over the
        shard-concatenated rows — the same selection the per-query
        collector in :meth:`search` makes, with a per-row collector
        fallback for ties at the top-k boundary).
        """
        return self._merged_shard_rows(
            "_batch_kernel", queries, k, search_kwargs
        )

    def _block_search(
        self, matrix: np.ndarray, k: int, **search_kwargs
    ) -> List[SearchResult]:
        """Answer an already-normalized block (what a dynamic composite
        over this index calls): every shard's ``_block_search``, then the
        same block merge as :meth:`_batch_kernel`."""
        return self._merged_shard_rows(
            "_block_search", matrix, k, search_kwargs
        )

    def _merged_shard_rows(self, entry, queries, k, search_kwargs):
        """Call every shard's ``entry`` kernel on the block and merge."""
        self._check_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(int(k), self.num_points)
        shard_batches = []
        for sub_index, ids in zip(self.shards, self.shard_point_ids):
            rows = getattr(sub_index, entry)(
                queries, min(k, int(ids.size)), **search_kwargs
            )
            shard_batches.append(
                pool_results(rows, wall_seconds=0.0, cpu_seconds=0.0)
            )
        return merge_shard_batches(
            shard_batches, self.shard_point_ids, k, queries.shape[0]
        )

    def _kernel_indexes(self) -> List[P2HIndex]:
        """The indexes whose kernel :meth:`_batch_kernel` calls: the shards."""
        return list(self.shards)

    # ------------------------------------------------------------ persistence

    def save(self, path) -> None:
        """Persist the fitted sharded index (all shards plus id maps).

        Uses the same versioned payload format as every static index
        (:mod:`repro.utils.persistence`); ``index_factory`` is pickled
        along, so custom ``lambda`` factories raise here — use the default
        factory or :class:`repro.api.specs.SpecIndexFactory` instead.
        """
        self._check_fitted()
        stores = self._array_stores()
        header = combined_storage_header(stores)
        dump_index_payload(
            path,
            self,
            spec=getattr(self, "_api_spec", None),
            storage_dtype=header["dtype"] if header else "float64",
            storage=header,
            stores=stores,
            # Shard layout in the header frame: `describe_index` / `repro
            # info` and the cluster payload splitter read the partition
            # count and per-shard sizes without unpickling the index.
            shards={"count": len(self.shards), "sizes": self.shard_sizes()},
        )

    def _array_stores(self):
        """Every shard's stores, in shard order (one sidecar slot each)."""
        stores = []
        for shard in self.shards:
            stores.extend(shard._array_stores())
        return stores

    def to_storage(self, storage) -> "PartitionedP2HIndex":
        """Migrate every shard's point arrays to the given storage spec."""
        for shard in self.shards:
            shard.to_storage(storage)
        return self

    @classmethod
    def load(cls, path) -> "PartitionedP2HIndex":
        """Load a partitioned index previously stored with :meth:`save`."""
        return load_typed_index(path, cls)

    def index_size_bytes(self) -> int:
        """Total payload size across all shards (plus the id maps)."""
        self._check_fitted()
        total = sum(shard.index_size_bytes() for shard in self.shards)
        total += sum(ids.nbytes for ids in self.shard_point_ids)
        return int(total)

    def shard_sizes(self) -> List[int]:
        """Number of points per shard."""
        self._check_fitted()
        return [int(ids.size) for ids in self.shard_point_ids]

    def indexing_report(self) -> Dict[str, float]:
        """Summary of the sharded build (for benchmarks)."""
        self._check_fitted()
        sizes = self.shard_sizes()
        return {
            "num_partitions": len(self.shards),
            "indexing_seconds": self.indexing_seconds,
            "index_size_bytes": float(self.index_size_bytes()),
            "min_shard": float(min(sizes)),
            "max_shard": float(max(sizes)),
        }

    # ------------------------------------------------------------ internals

    def _check_fitted(self) -> None:
        if not self.shards:
            raise NotFittedError(
                "PartitionedP2HIndex must be fitted before it can be used"
            )
