"""Persistent search sessions: one worker pool, many batch calls.

:func:`repro.engine.batch.execute_batch` — and therefore every index's
``batch_search`` — historically built a fresh worker pool per call and, for
the process executor, re-pickled the entire fitted index into every worker
each time.  For the paper's large-scale sweeps (Fig. 9) and for any serving
deployment answering a stream of small batches, that per-call setup
dominates: pool spawn plus index transfer can cost more than the queries
themselves.

:class:`Searcher` amortizes it.  The session owns one long-lived
thread/process pool sized from its :class:`~repro.api.SearchOptions`;
process workers are initialized exactly once with the fitted index
(reusing the engine's ``_process_worker_init``), and every subsequent
``batch_search`` / ``stream`` call ships only the query chunks plus the
per-call options.  Chunking and the kernel call are the engine's own
(``execute_batch`` with the session pool plugged in), so results **and**
work-counter stats are bit-identical to the per-call path for every index
family, executor, and ``n_jobs``.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from repro.api.options import SearchOptions
from repro.engine.batch import (
    BatchSearchResult,
    _process_worker_init,
    execute_batch,
)

#: SearchOptions fields a call may override (everything typed except the
#: session-fixed pool/storage knobs and the extra mapping itself).
_PER_CALL_FIELDS = frozenset(
    field.name for field in dataclasses.fields(SearchOptions)
) - {"n_jobs", "executor", "storage", "extra"}


class Searcher:
    """A reusable search session over one fitted index.

    Parameters
    ----------
    index:
        Any fitted index — static tree/hashing families as well as the
        dynamic and partitioned composites.  :meth:`search` needs only
        ``search``; :meth:`batch_search` and :meth:`stream` also need the
        index's ``_batch_kernel`` (see the notes).
    options:
        The session's :class:`~repro.api.SearchOptions`; defaults are used
        when omitted.  ``n_jobs``/``executor`` fix the pool for the whole
        session; ``k`` and the per-search knobs are defaults that
        individual calls may override.
    option_overrides:
        Convenience kwargs forwarded to ``options.replace`` (e.g.
        ``Searcher(tree, k=10, n_jobs=4, executor="process")``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Searcher, SearchOptions, build_index
    >>> rng = np.random.default_rng(0)
    >>> tree = build_index("bc_tree", random_state=0).fit(rng.normal(size=(500, 16)))
    >>> queries = rng.normal(size=(8, 17))
    >>> with Searcher(tree, SearchOptions(k=5, n_jobs=2)) as searcher:
    ...     first = searcher.batch_search(queries)
    ...     second = searcher.batch_search(queries)   # same pool, no respawn
    >>> len(first), len(second)
    (8, 8)

    Notes
    -----
    The session is not thread-safe: share the index across sessions, not
    one session across threads.  Exiting the context (or calling
    :meth:`close`) shuts the pool down; a closed session raises on use.

    Per-call search options must be ones the index's batch kernel
    accepts (``BallTreeMIPS``'s ``absolute`` included); an unknown option
    raises the same ``TypeError`` as ``search``.  Every call, on either
    executor, runs :func:`repro.engine.batch.execute_batch` on the session
    pool, so batched search needs an index with a ``_batch_kernel`` —
    every family in the library has one, and a third-party family gets
    one by subclassing :class:`~repro.core.index_base.P2HIndex`.
    """

    def __init__(
        self,
        index: Any,
        options: Optional[SearchOptions] = None,
        **option_overrides: Any,
    ) -> None:
        if not hasattr(index, "search"):
            raise TypeError(
                f"Searcher needs a fitted index exposing search(); "
                f"got {type(index).__name__}"
            )
        options = options or SearchOptions()
        if option_overrides:
            options = options.replace(**option_overrides)
        self.index = index
        self.options = options
        if options.storage is not None:
            # Migrate once, up front, before any pool exists.  With the
            # mmap backend, process workers then unpickle file *paths* and
            # re-open the maps per worker — the index transfer no longer
            # scales with the data size.  Refuse (rather than silently
            # drop the knob) for indexes without storage support.
            migrate = getattr(index, "to_storage", None)
            if not callable(migrate):
                raise TypeError(
                    f"options.storage is set but {type(index).__name__} "
                    "does not support storage migration (no to_storage)"
                )
            migrate(options.storage)
        requested = 1 if options.n_jobs is None else options.n_jobs
        #: Effective pool size (the request capped at the CPU count), the
        #: same cap ``execute_batch`` applies per call.
        self.workers = min(requested, os.cpu_count() or 1)
        self._pool: Optional[Union[ThreadPoolExecutor, ProcessPoolExecutor]] = None
        self._pool_index_version: Optional[int] = None
        self._closed = False

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "Searcher":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        # The context manager tolerates an explicit close() inside the
        # block; only a second *explicit* close() is a caller bug.
        if not self._closed:
            self.close()

    def close(self) -> None:
        """Shut the session pool down.

        Closing is final: a second explicit ``close()`` raises a
        descriptive :class:`RuntimeError` (a double-close almost always
        means two owners believe they hold the session), as does any
        subsequent ``search``/``batch_search``/``stream`` call.  Exiting
        the ``with`` block after an explicit close is still fine.
        """
        if self._closed:
            raise RuntimeError(
                "this Searcher session is already closed; close() is final "
                "— open a new Searcher to keep searching"
            )
        pool, self._pool = self._pool, None
        self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def _index_version(self) -> Optional[int]:
        """Mutation counter of the session's index (None for foreign types).

        Process workers hold a pickled *snapshot* of the index.  Every
        index family bumps ``_mutation_version`` when its answers can
        change — the dynamic composite on ``insert``/``delete``/``rebuild``
        and every static family on (re)``fit`` — so the session can tell
        its snapshot went stale and must be rebuilt; without this a warm
        pool would keep serving deleted points or pre-refit data.

        A third-party index without the counter returns None and is
        treated as immutable for the lifetime of the session: mutating one
        under an open process session is not detected.  Mutable extension
        families should maintain their own ``_mutation_version`` (see
        :func:`repro.api.register_index`).
        """
        return getattr(self.index, "_mutation_version", None)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this Searcher session has been closed; its worker pool is "
                "gone — open a new Searcher (or use index.search directly) "
                "to keep searching"
            )

    def _ensure_pool(self) -> Optional[Union[ThreadPoolExecutor, ProcessPoolExecutor]]:
        """The session pool, created lazily on the first parallel call.

        Process workers receive the fitted index through the engine's own
        ``_process_worker_init`` exactly once; ``k`` and the search options
        travel with each task, so one pool serves calls with different
        per-call overrides.  If the index mutated since the pool was
        initialized (see :meth:`_index_version`), the stale pool is torn
        down and respawned with the current state — for every index family
        carrying the mutation counter, mutation between calls costs one
        re-initialization, never a wrong answer.
        """
        self._check_open()
        if self.workers <= 1:
            return None
        if (
            self._pool is not None
            and self.options.executor == "process"
            and self._pool_index_version != self._index_version()
        ):
            stale, self._pool = self._pool, None
            stale.shutdown(wait=True)
        if self._pool is None:
            if self.options.executor == "process":
                self._pool_index_version = self._index_version()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_process_worker_init,
                    initargs=(self.index,),
                )
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    # ----------------------------------------------------------------- calls

    def _call_options(
        self, k: Optional[int], overrides: Mapping[str, Any]
    ) -> SearchOptions:
        options = self.options
        changes: Dict[str, Any] = dict(overrides)
        if k is not None:
            changes["k"] = k
        for fixed in ("n_jobs", "executor", "storage"):
            if fixed in changes:
                raise ValueError(
                    f"{fixed} is fixed for the lifetime of a Searcher "
                    "session; open a new session to change it"
                )
        if changes:
            field_changes = {
                name: changes.pop(name) for name in list(changes)
                if name in _PER_CALL_FIELDS
            }
            # A per-call budget override replaces the session's budget
            # outright: switching budget *form* (fraction <-> absolute)
            # must clear the complementary field, or replace() would
            # re-validate with both set and reject the override.
            for given, other in (
                ("candidate_fraction", "max_candidates"),
                ("max_candidates", "candidate_fraction"),
            ):
                if (
                    field_changes.get(given) is not None
                    and other not in field_changes
                ):
                    field_changes[other] = None
            if changes:
                extra = dict(options.extra)
                extra.update(changes)
                field_changes["extra"] = extra
            options = options.replace(**field_changes)
        return options

    def batch_search(
        self, queries: np.ndarray, *, k: Optional[int] = None, **overrides: Any
    ) -> BatchSearchResult:
        """Answer every row of ``queries`` on the session's warm pool.

        Results and per-query/pooled stats are bit-identical to
        ``index.batch_search(queries, ...)`` with the same options — the
        session only removes the per-call pool spawn and index pickling.
        ``k`` and per-search knobs (budget, ``profile``,
        family-specific kwargs) may be overridden per call;
        ``n_jobs``/``executor`` are fixed per session.
        """
        self._check_open()
        options = self._call_options(k, overrides)
        # Inline batches (one worker, or zero/one query) never touch a
        # pool inside execute_batch, so don't spawn — or respawn after a
        # mutation — one for them.
        rows = 1 if np.ndim(queries) == 1 else int(np.shape(queries)[0])
        pool = self._ensure_pool() if rows > 1 else None
        return execute_batch(
            self.index,
            queries,
            options.k,
            n_jobs=self.workers,
            executor=options.executor,
            pool=pool,
            **options.search_kwargs(),
        )

    def stream(
        self,
        query_chunks: Iterable[np.ndarray],
        *,
        k: Optional[int] = None,
        **overrides: Any,
    ) -> Iterator[BatchSearchResult]:
        """Answer an iterable of query chunks, one warm batch per chunk.

        Lazily yields one :class:`BatchSearchResult` per chunk, reusing
        the session pool throughout — the serving-loop shape (bounded
        memory, streaming producers) the per-call API could not express
        without paying pool setup per chunk.  The closed-session check
        runs eagerly at the call (not at the first ``next()``), so a
        closed session fails where the mistake was made; each chunk is
        re-checked as it executes.
        """
        self._check_open()

        def _generate() -> Iterator[BatchSearchResult]:
            for chunk in query_chunks:
                yield self.batch_search(chunk, k=k, **overrides)

        return _generate()

    def search(
        self, query: np.ndarray, *, k: Optional[int] = None, **overrides: Any
    ) -> Any:
        """Single-query convenience: ``index.search`` with session defaults."""
        self._check_open()
        options = self._call_options(k, overrides)
        return self.index.search(query, k=options.k, **options.search_kwargs())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self._closed else (
            "warm" if self._pool is not None else "cold"
        )
        return (
            f"Searcher(index={type(self.index).__name__}, "
            f"executor={self.options.executor!r}, workers={self.workers}, "
            f"{state})"
        )
