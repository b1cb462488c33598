"""repro — Ball-Tree and BC-Tree for Point-to-Hyperplane Nearest Neighbor Search.

A from-scratch Python reproduction of

    Qiang Huang, Anthony K. H. Tung.
    "Lightweight-Yet-Efficient: Revitalizing Ball-Tree for
    Point-to-Hyperplane Nearest Neighbor Search." ICDE 2023.

**The stable entry point is** :mod:`repro.api`: declarative
:class:`~repro.api.IndexSpec` configurations, the string-keyed registry
behind :func:`~repro.api.build_index` (covering every index family below,
including the dynamic and partitioned composites), the centrally-validated
:class:`~repro.api.SearchOptions`, family-agnostic
:func:`~repro.api.save_index` / :func:`~repro.api.load_index`, and the
:class:`~repro.api.Searcher` session that reuses one worker pool across
repeated batch calls.  The concrete classes re-exported here remain
supported as thin constructor aliases.

The package exposes:

* the two tree indexes the paper proposes (:class:`BallTree`,
  :class:`BCTree`),
* the exact baseline (:class:`LinearScan`) and a KD-Tree comparison point
  (:class:`KDTree`),
* the hashing baselines the paper compares against (:class:`NHIndex`,
  :class:`FHIndex`),
* the unified query-execution engine behind every index's ``search`` /
  ``batch_search`` (:mod:`repro.engine` — one traversal implementation for
  depth-first and best-first search, plus a parallel batched path whose
  results are bit-identical to sequential search),
* synthetic dataset surrogates and hyperplane query generators
  (:mod:`repro.datasets`),
* an evaluation harness that regenerates every table and figure of the
  paper's experimental section (:mod:`repro.eval`, driven by ``repro run``
  and ``benchmarks/bench_paper_artefacts.py``), and
* the two motivating applications, active learning and maximum-margin
  clustering (:mod:`repro.apps`).

Quickstart (see :mod:`repro.api` for the full surface)
------------------------------------------------------
>>> import numpy as np
>>> from repro.api import SearchOptions, Searcher, build_index
>>> rng = np.random.default_rng(7)
>>> data = rng.normal(size=(1000, 32))          # points in R^{d-1}
>>> query = rng.normal(size=33)                 # hyperplane (normal; offset)
>>> tree = build_index("bc_tree", leaf_size=64, random_state=7).fit(data)
>>> result = tree.search(query, k=10)
>>> len(result)
10

Batched search on a reusable worker pool (results identical to per-query
search):

>>> queries = rng.normal(size=(8, 33))
>>> with Searcher(tree, SearchOptions(k=10, n_jobs=2)) as searcher:
...     batch = searcher.batch_search(queries)
>>> len(batch)
8
"""

from repro.core.ball_tree import BallTree
from repro.core.bc_tree import BCTree
from repro.core.best_first import BestFirstSearcher, best_first_search
from repro.core.distances import (
    augment_points,
    normalize_query,
    p2h_distance,
    p2h_distance_raw,
)
from repro.core.dynamic import DynamicP2HIndex
from repro.core.index_base import NotFittedError, P2HIndex
from repro.core.kd_tree import KDTree
from repro.core.linear_scan import LinearScan
from repro.core.mips import BallTreeMIPS, linear_mips
from repro.core.partitioned import PartitionedP2HIndex
from repro.core.policies import BranchPreference
from repro.core.rp_tree import RPTree
from repro.core.results import SearchResult, SearchStats
from repro.engine import BatchSearchResult, TraversalEngine, execute_batch
from repro.hashing.fh import FHIndex
from repro.hashing.nh import NHIndex

# The api package builds on the core/engine/hashing layers above, so it is
# imported last (importing it first would re-enter repro.engine.batch
# while it is still initializing).
from repro.api import (
    IndexSpec,
    SearchOptions,
    Searcher,
    available_indexes,
    build_index,
    load_index,
    register_index,
    save_index,
)

__version__ = "1.2.0"

__all__ = [
    "IndexSpec",
    "SearchOptions",
    "Searcher",
    "available_indexes",
    "build_index",
    "register_index",
    "save_index",
    "load_index",
    "BallTree",
    "BCTree",
    "KDTree",
    "RPTree",
    "LinearScan",
    "NHIndex",
    "FHIndex",
    "P2HIndex",
    "NotFittedError",
    "BranchPreference",
    "SearchResult",
    "SearchStats",
    "BatchSearchResult",
    "TraversalEngine",
    "execute_batch",
    "BestFirstSearcher",
    "best_first_search",
    "BallTreeMIPS",
    "linear_mips",
    "DynamicP2HIndex",
    "PartitionedP2HIndex",
    "augment_points",
    "normalize_query",
    "p2h_distance",
    "p2h_distance_raw",
    "__version__",
]
