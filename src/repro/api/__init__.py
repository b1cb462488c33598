"""repro.api — the stable, declarative front door of the library.

The package collapses the ten-plus index constructors and their scattered
search kwargs into four orthogonal pieces:

* :class:`IndexSpec` — a frozen, JSON-round-trippable description of an
  index configuration (``kind`` string + ``params``), covering every
  family including the ``dynamic`` and ``partitioned`` composites with
  nested sub-index specs;
* the **registry** — :func:`build_index` constructs any family from a
  kind string, spec, or plain dict; :func:`register_index` plugs new
  families in; :func:`available_indexes` lists them;
* :class:`SearchOptions` — one typed, centrally-validated object for
  every search knob (``k``, candidate budget, ``n_jobs``, ``executor``,
  ``profile``, family extras), replacing ad-hoc kwarg threading;
* :class:`Searcher` — a context-manager session owning a long-lived
  worker pool: repeated ``batch_search`` / ``stream`` calls skip pool
  spawn and (for the process executor) per-call index pickling while
  staying bit-identical to the per-call path.

Persistence is family-agnostic: every ``save`` writes a format-versioned
payload stamped with the index's spec, and :func:`load_index`
reconstructs any family without naming its class.

Quickstart
----------
>>> import numpy as np
>>> from repro.api import IndexSpec, SearchOptions, Searcher, build_index
>>> rng = np.random.default_rng(7)
>>> data = rng.normal(size=(1000, 32))
>>> queries = rng.normal(size=(16, 33))
>>> tree = build_index("bc_tree", leaf_size=64, random_state=7).fit(data)
>>> options = SearchOptions(k=10, n_jobs=2)
>>> with Searcher(tree, options) as searcher:
...     batch = searcher.batch_search(queries)
>>> len(batch)
16
"""

from repro.api.options import SearchOptions
from repro.api.persistence import (
    IndexDescription,
    describe_index,
    load_index,
    save_index,
    saved_spec,
    saved_storage_dtype,
)
from repro.storage import StorageSpec
from repro.api.registry import (
    IndexFamily,
    available_indexes,
    build_index,
    index_family,
    register_index,
)
from repro.api.session import Searcher
from repro.api.specs import IndexSpec, SpecIndexFactory

__all__ = [
    "IndexSpec",
    "IndexDescription",
    "IndexFamily",
    "SpecIndexFactory",
    "SearchOptions",
    "Searcher",
    "StorageSpec",
    "available_indexes",
    "build_index",
    "describe_index",
    "index_family",
    "register_index",
    "save_index",
    "load_index",
    "saved_spec",
    "saved_storage_dtype",
]
