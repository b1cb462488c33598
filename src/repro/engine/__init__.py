"""Query-execution engine shared by every index in the library.

This subpackage owns *how* queries are answered; the index classes under
:mod:`repro.core` own *what* is indexed.  The pieces:

* :mod:`repro.engine.block` — :class:`BlockTraversalKernel`, the one
  branch-and-bound traversal behind Ball-Tree, BC-Tree, RP-Tree and
  KD-Tree search: depth-first (stack) or best-first (heap), exact or
  budgeted.  It answers every row of a block with the same one-row
  descent, one row for ``search`` and a worker chunk for
  ``batch_search``, so results and work counters are the same either
  way.
* :mod:`repro.engine.traversal` — :class:`TraversalEngine`, the tree
  geometry and node values the kernels walk, plus the cached kernels
  (including the ``exact=False`` fast tier, :mod:`repro.engine.fast`).
* :mod:`repro.engine.batch` — :func:`execute_batch` and
  :class:`BatchSearchResult`, the batched path behind every index's
  ``batch_search`` (contiguous chunks, one ``_batch_kernel`` call per
  chunk on thread/process worker pools, pooled statistics, bit-identical
  to sequential ``search``).
* :mod:`repro.engine.budget` — :func:`resolve_budget`, the one translation
  of the approximate-search knobs into a candidate budget.

Future backends (sharded execution, async serving, compiled kernels) plug
in here without touching the index classes.
"""

from repro.engine.batch import (
    BatchSearchResult,
    execute_batch,
    pool_results,
)
from repro.engine.block import BlockTraversalKernel
from repro.engine.budget import resolve_budget
from repro.engine.traversal import LeafPruningData, TraversalEngine

__all__ = [
    "BatchSearchResult",
    "BlockTraversalKernel",
    "LeafPruningData",
    "TraversalEngine",
    "execute_batch",
    "pool_results",
    "resolve_budget",
]
