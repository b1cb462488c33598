"""Shared batched-execution machinery for the hashing baselines.

Every hashing index (NH, FH, and the AH/EH/BH/MH related-work schemes)
answers a query in two phases: *candidate generation* (probe hash tables)
and *verification* (exact ``|<x, q>|`` on the candidate union).  This module
factors the phases into one vectorized whole-batch kernel so the hashing
side of the paper's comparison runs through the same engine fast path the
tree indexes and the linear scan got:

* :meth:`HashingIndex._block_search` answers the block the engine's
  entry point (:meth:`P2HIndex._batch_kernel`, dispatched by
  :func:`repro.engine.batch.execute_batch`) has normalized: it generates
  candidates for bounded sub-blocks of queries at once (subclass hook
  :meth:`HashingIndex._candidates_batch`), and verifies each query's
  candidates with the per-query gather + vectorized top-k selection in
  :meth:`HashingIndex._verify_block`.
* ``search`` runs the same kernel with a block of one query, so
  ``search`` and ``batch_search`` run literally the same code — the
  engine's bit-identical-results contract holds by construction, for any
  batch chunking.

Verification reduces each query's deduplicated candidate block with its
own ``points[ids] @ query`` GEMV, followed by one vectorized top-k
partition instead of per-candidate heap pushes — the distances are the
same in any block by construction (same gather, same kernel, same
inputs).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.index_base import P2HIndex
from repro.core.results import SearchResult, SearchStats
from repro.utils.validation import check_positive_int


def unique_id_rows(candidates: np.ndarray) -> List[np.ndarray]:
    """Per-row sorted distinct ids of an equal-width candidate matrix.

    Equivalent to ``[np.unique(row) for row in candidates]`` but performs
    one whole-batch row sort instead of a Python-level hash dedupe per
    query — the single hottest step of the hashing kernels.  Sorting and
    the first-occurrence mask are per-row independent, so the output is
    identical no matter how a batch is chunked.
    """
    num_queries, width = candidates.shape
    if width == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(num_queries)]
    ordered = np.sort(candidates, axis=1)
    fresh = np.empty(ordered.shape, dtype=bool)
    fresh[:, 0] = True
    fresh[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    return [row[mask] for row, mask in zip(ordered, fresh)]


#: Upper bound on queries per internal kernel sub-block.  The probe kernels
#: materialize O(tables * probes) of dense intermediates per query;
#: sub-blocking bounds kernel memory independently of the batch size (the
#: per-row independence of every step makes the split invisible in the
#: results).  Indexes whose probe width varies (NH/FH) shrink the block
#: further via :meth:`HashingIndex._kernel_block_queries` so the bound also
#: holds under large ``probes_per_table`` overrides.
KERNEL_BLOCK_QUERIES = 1024

#: Target size (in array elements) of one probe-kernel intermediate; the
#: per-block query count is derived from it (~32 MB of float64 per array).
KERNEL_TARGET_ELEMENTS = 4_000_000


class HashingIndex(P2HIndex):
    """Base class for hashing indexes with a vectorized whole-batch kernel.

    Subclasses implement :meth:`_candidates_batch`; sub-blocking,
    candidate verification and top-k collection live here.
    """

    # ------------------------------------------------------------- overrides

    def _candidates_batch(
        self, matrix: np.ndarray, **kwargs
    ) -> Tuple[List[np.ndarray], List[SearchStats]]:
        """Candidate ids and probe counters for every normalized query row.

        Returns one deduplicated (``np.unique``-sorted) id array and one
        :class:`SearchStats` (with ``buckets_probed`` filled in) per query.
        Implementations must keep every step per-row independent so results
        do not depend on how the engine chunks a batch.
        """
        raise NotImplementedError

    # ---------------------------------------------------------------- kernel

    def _block_search(
        self, matrix: np.ndarray, k: int, **kwargs
    ) -> List[SearchResult]:
        """Answer a normalized query block in bounded sub-blocks.

        :meth:`P2HIndex._batch_kernel` normalizes the block and checks
        ``k``; each sub-block then gets one candidate-generation and one
        verification pass.
        """
        block = max(1, min(KERNEL_BLOCK_QUERIES,
                           self._kernel_block_queries(**kwargs)))
        results: List[SearchResult] = []
        for start in range(0, matrix.shape[0], block):
            sub = matrix[start: start + block]
            candidate_lists, stats_list = self._candidates_batch(
                sub, **kwargs
            )
            results.extend(
                self._verify_block(sub, candidate_lists, k, stats_list)
            )
        return results

    def _verify_block(
        self,
        matrix: np.ndarray,
        candidate_lists: Sequence[np.ndarray],
        k: int,
        stats_list: Sequence[SearchStats],
    ) -> List[SearchResult]:
        """Verify every query's candidate block against the data matrix.

        Each query's candidates are gathered and reduced with the same
        ``points[ids] @ query`` GEMV a one-row search runs, so distances
        are bit-identical to sequential verification.  (A single
        whole-batch gather was measured slower at every dimension: copying
        all candidate rows into one out-of-cache buffer costs more memory
        bandwidth than per-query gathers that stay L2-resident, 4x slower
        at d=513.)  Top-k selection is a vectorized partition +
        lexicographic ``(distance, id)`` sort — the same ordering
        :class:`~repro.core.results.TopKCollector` produces, without its
        per-candidate heap pushes.
        """
        results: List[SearchResult] = []
        for row, (ids, stats) in enumerate(zip(candidate_lists, stats_list)):
            length = int(ids.shape[0])
            if not length:
                results.append(
                    SearchResult(
                        indices=np.empty(0, dtype=np.int64),
                        distances=np.empty(0, dtype=np.float64),
                        stats=stats,
                    )
                )
                continue
            distances = np.abs(self._points[ids] @ matrix[row])
            stats.candidates_verified += length
            if k < length:
                top = np.argpartition(distances, k - 1)[:k]
            else:
                top = np.arange(length)
            order = top[np.lexsort((ids[top], distances[top]))]
            results.append(
                SearchResult(
                    indices=ids[order],
                    distances=distances[order],
                    stats=stats,
                )
            )
        return results

    def _kernel_block_queries(self, **kwargs) -> int:
        """Queries per kernel sub-block; subclasses scale by probe width."""
        return KERNEL_BLOCK_QUERIES

    def _resolve_probe_options(self, probes_per_table, num_tables):
        """Resolve the query-time probe overrides for projection-table
        indexes (NH/FH): defaults from the constructor, validation via
        ``check_positive_int``, and the built table count as the ceiling.
        The one resolution both the memory sub-blocking and the candidate
        generation use, so they can never disagree."""
        probes = (
            self.probes_per_table
            if probes_per_table is None
            else check_positive_int(probes_per_table, name="probes_per_table")
        )
        tables = (
            self.num_tables
            if num_tables is None
            else min(
                check_positive_int(num_tables, name="num_tables"),
                self.num_tables,
            )
        )
        return probes, tables

    # ------------------------------------------------------- bucket helpers

    def _build_byte_buckets(
        self, codes: np.ndarray, columns_per_table: Sequence
    ) -> List[Dict[bytes, np.ndarray]]:
        """Group rows of a bool code matrix into per-table byte-keyed buckets.

        ``columns_per_table`` selects each table's key bits (a slice or an
        index array); the byte representation of those bits is the bucket
        key, cheap to derive in both the build and batched query paths.
        Shared by the AH/EH and BH/MH bucket indexes.
        """
        tables: List[Dict[bytes, np.ndarray]] = []
        for columns in columns_per_table:
            chunk = np.ascontiguousarray(codes[:, columns])
            buckets: Dict[bytes, List[int]] = defaultdict(list)
            for row in range(chunk.shape[0]):
                buckets[chunk[row].tobytes()].append(row)
            tables.append(
                {
                    key: np.asarray(value, dtype=np.int64)
                    for key, value in buckets.items()
                }
            )
        return tables

    def _probe_byte_buckets(
        self, matrix: np.ndarray, columns_per_table: Sequence
    ) -> Tuple[List[np.ndarray], List[SearchStats]]:
        """Candidate generation for byte-keyed bucket tables.

        Codes are computed per row with the subclass's ``_query_codes`` —
        the same sign kernel the single-query path always used (a
        whole-block GEMM is not bit-reproducible against it; see
        :mod:`repro.engine.batch`) — then every table is probed with cheap
        byte-key lookups.
        """
        candidate_lists: List[np.ndarray] = []
        stats_list: List[SearchStats] = []
        for row in range(matrix.shape[0]):
            codes = self._query_codes(matrix[row])
            buckets = []
            for table, columns in zip(self._tables, columns_per_table):
                bucket = table.get(
                    np.ascontiguousarray(codes[columns]).tobytes()
                )
                if bucket is not None:
                    buckets.append(bucket)
            if buckets:
                candidate_lists.append(np.unique(np.concatenate(buckets)))
            else:
                candidate_lists.append(np.empty(0, dtype=np.int64))
            stats_list.append(SearchStats(buckets_probed=self.num_tables))
        return candidate_lists, stats_list

    def __setstate__(self, state):
        """Migrate bucket tables pickled with the old tuple-of-bits keys.

        Earlier releases keyed ``_tables`` by tuples of ints; loading such
        a pickle into the byte-key probe would silently miss every bucket
        and return empty results, so convert the keys on load.  The base
        class's migration of pre-storage-layer pickles runs first.
        """
        super().__setstate__(state)
        tables = self.__dict__.get("_tables")
        if isinstance(tables, list):
            self._tables = [
                {
                    (
                        np.asarray(key, dtype=bool).tobytes()
                        if isinstance(key, tuple)
                        else key
                    ): value
                    for key, value in table.items()
                }
                if isinstance(table, dict)
                else table
                for table in tables
            ]
