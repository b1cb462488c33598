"""Query coalescing: concurrent single queries become kernel-sized blocks.

Live serving traffic arrives one query at a time, while the engine's
``batch_search`` answers a block of queries in one call (block kernel,
warm :class:`~repro.api.Searcher` pools).  The :class:`QueryCoalescer`
joins the two with **group commit**: arriving requests append to a
queue, and a flusher task cuts whatever is queued (at most
``max_batch``) the moment the backend is free.  An idle backend answers
a lone query at once; a busy one batches whatever queued behind its
current flush.  No request ever waits for companions that may not come.

Requests carry their own ``k``/budget/``exact`` options.  A flush groups
its requests by option signature and answers each group as one block;
options therefore ride the existing per-task payloads of the warm pool,
and mixed-option traffic coalesces within — never across — option groups.
Every served block, a lone query's included, runs through
:func:`search_rows`: the session's ``batch_search`` over contiguous
slices of at most :data:`~repro.engine.fast.ROW_SWEEP_LIMIT` rows.  An
exact row runs its own descent in any block, and a fast
(``exact=False``) row does so in any block of at most that many rows, so
a coalesced answer is **bit-identical** to ``Searcher.search`` with the
same options, whatever ``max_batch`` is.

Execution happens through a pluggable **backend**.  The default
:class:`SearcherBackend` runs option-groups on a single dedicated compute
thread (a :class:`~concurrent.futures.ThreadPoolExecutor` of one): the
:class:`~repro.api.Searcher` session is not thread-safe, and one thread
serializes it while keeping the event loop free to accept and parse the
next wave of requests.  The distributed tier (:mod:`repro.cluster`)
plugs in an async scatter-gather backend instead — same queue, same
flush policy, different execution substrate.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.batch import _batch_kernel_of
from repro.engine.fast import ROW_SWEEP_LIMIT


class BackendUnavailable(RuntimeError):
    """The execution backend cannot answer right now (the server maps it
    to a descriptive HTTP 503).  Raised by distributed backends when a
    shard is unreachable or the cluster cannot reach a consistent
    snapshot; the single-process :class:`SearcherBackend` never raises
    it."""


def options_signature(
    k: Optional[int], overrides: Dict[str, Any], dim: int
) -> Tuple:
    """A hashable grouping key: requests coalesce iff their options match.

    ``repr`` canonicalizes the values (floats round-trip exactly, bools
    and ints are distinct), so two requests land in one block only when
    their effective search options are literally identical — the
    precondition for answering them as one block.  The
    query dimension is part of the key: a wrong-dimension query then fails
    alone in its own group (with the engine's own dimension error) instead
    of poisoning the flush of its well-formed companions.
    """
    return (
        k,
        dim,
        tuple(sorted((name, repr(value)) for name, value in overrides.items())),
    )


def search_rows(
    searcher: Any, queries: np.ndarray, k: Optional[int], overrides: Dict[str, Any]
) -> List[Any]:
    """Answer a served block, one result per row (blocking; compute thread).

    The one way the servers run a block: ``searcher.batch_search`` over
    contiguous slices of at most :data:`ROW_SWEEP_LIMIT` rows.  A fast row
    of a taller block would be rounded by its block-mates' GEMMs; within
    the limit every row, exact or fast, answers as its one-row
    ``searcher.search`` does.
    """
    rows: List[Any] = []
    for lo in range(0, queries.shape[0], ROW_SWEEP_LIMIT):
        rows.extend(searcher.batch_search(
            queries[lo:lo + ROW_SWEEP_LIMIT], k=k, **overrides
        ))
    return rows


class PendingRequest:
    """One enqueued query awaiting its coalesced flush."""

    __slots__ = ("query", "k", "overrides", "signature", "future", "batch_size")

    def __init__(
        self,
        query: np.ndarray,
        *,
        k: Optional[int],
        overrides: Dict[str, Any],
        future: "asyncio.Future[Any]",
    ) -> None:
        self.query = query
        self.k = k
        self.overrides = overrides
        self.signature = options_signature(k, overrides, int(query.shape[0]))
        self.future = future
        #: Size of the option-group this request rode in (stamped at
        #: execution; surfaced in the response so clients/tests can see
        #: coalescing).
        self.batch_size = 0


class SearcherBackend:
    """Default execution backend: one warm session, one compute thread.

    Owns *access* to the :class:`~repro.api.Searcher` (every call happens
    on the single compute thread, which serializes the non-thread-safe
    session) but not its lifecycle — closing the session is the server's
    job.  :meth:`run_serialized` exposes the same thread to subclasses of
    the server that must execute arbitrary work (shard updates, explicit
    batch requests) atomically with respect to in-flight searches.
    """

    def __init__(self, searcher: Any) -> None:
        if getattr(searcher, "closed", False):
            raise RuntimeError(
                "cannot serve a closed Searcher session; open a fresh "
                "session for the server"
            )
        # Every flush is a batch_search: refuse an index without a batch
        # kernel here rather than answer each of its requests with a 400.
        _batch_kernel_of(searcher.index)
        self.searcher = searcher
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compute"
        )

    def start(self) -> None:
        """Called on the event loop before the first group executes."""

    async def aclose(self) -> None:
        """Release execution resources (after the final drain flush)."""
        self._compute.shutdown(wait=True)

    def describe(self) -> Dict[str, Any]:
        """Identity payload for the ``/healthz`` route."""
        index = self.searcher.index
        return {
            "index": type(index).__name__,
            "num_points": int(getattr(index, "num_points", 0) or 0),
        }

    async def run_group(self, group: List[PendingRequest]) -> List[Any]:
        """Answer one option-group; returns one result per request."""
        return await asyncio.get_running_loop().run_in_executor(
            self._compute, self._search_group, group
        )

    async def run_serialized(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the compute thread (serialized with searches)."""
        return await asyncio.get_running_loop().run_in_executor(
            self._compute, fn
        )

    def _search_group(self, group: List[PendingRequest]) -> List[Any]:
        """Answer one option-group as a block (compute thread)."""
        head = group[0]
        matrix = np.stack([request.query for request in group])
        return search_rows(self.searcher, matrix, head.k, head.overrides)


class QueryCoalescer:
    """The coalescing queue plus its group-commit flusher task.

    The flusher never waits for companions: whenever the backend is free
    it cuts the oldest queued requests, at most ``max_batch``, and
    executes them.  A flush therefore holds what queued while the
    previous one ran; any overflow rides the next flush.

    Parameters
    ----------
    backend:
        The execution backend: anything with the :class:`SearcherBackend`
        surface (``start`` / ``run_group`` / ``aclose`` / ``describe``).
    max_batch:
        Most queries per flush; 1 disables coalescing.
    max_queue_depth:
        Most queries queued awaiting flush; :meth:`submit` refuses beyond
        it (the server answers 429).
    """

    def __init__(
        self,
        backend: Any,
        *,
        max_batch: int,
        max_queue_depth: int,
    ) -> None:
        self.backend = backend
        self._max_batch = int(max_batch)
        self._max_queue_depth = int(max_queue_depth)
        self._pending: List[PendingRequest] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._draining = False
        # Serving counters (read by the /stats endpoint).
        self.requests_executed = 0
        self.batches_executed = 0
        self.largest_batch = 0
        self.rejected_full = 0
        self.dropped_timeout = 0
        #: Flush cycles that cut a non-empty batch off the queue.
        self.flushes = 0
        #: Executed group size -> count (the batches-by-size histogram
        #: surfaced by ``/stats``; distinct from ``largest_batch``, which
        #: only keeps the peak).
        self.batch_size_counts: Dict[int, int] = {}

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn the flusher task on the running event loop."""
        self.backend.start()
        self._wakeup = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-flusher"
        )

    async def drain(self, timeout: float) -> None:
        """Flush everything queued, then stop the flusher task.

        New submissions are refused from the moment drain begins; queued
        requests get up to ``timeout`` seconds to finish executing, after
        which they fail with :class:`asyncio.CancelledError` rather than
        hanging their connections forever.
        """
        self._draining = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            try:
                await asyncio.wait_for(self._task, timeout=timeout)
            except asyncio.TimeoutError:
                self._task.cancel()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass
            self._task = None
        for request in self._pending:
            if not request.future.done():
                request.future.cancel()
        self._pending.clear()
        await self.backend.aclose()

    # ----------------------------------------------------------------- intake

    @property
    def depth(self) -> int:
        """Requests currently queued awaiting execution."""
        return len(self._pending)

    def submit(self, request: PendingRequest) -> bool:
        """Queue one request; False means the queue is full (answer 429)."""
        if self._draining:
            return False
        if len(self._pending) >= self._max_queue_depth:
            self.rejected_full += 1
            return False
        self._pending.append(request)
        if self._wakeup is not None:
            self._wakeup.set()
        return True

    # ---------------------------------------------------------------- flusher

    async def _run(self) -> None:
        wakeup = self._wakeup
        if wakeup is None:
            raise RuntimeError("flusher running before start() created its event")
        while True:
            if not self._pending:
                if self._draining:
                    return
                wakeup.clear()
                await wakeup.wait()
                continue
            # Group commit: the backend is free, so cut whatever queued
            # while the previous flush ran and execute it now.
            batch = self._cut_batch()
            if not batch:
                continue
            self.flushes += 1
            await self._execute_batch(batch)

    def _cut_batch(self) -> List[PendingRequest]:
        """Pop up to ``max_batch`` live requests off the queue head.

        Requests whose future is already done (per-request timeout fired
        and answered 504) are dropped here, before any compute is spent
        on them.
        """
        batch: List[PendingRequest] = []
        while self._pending and len(batch) < self._max_batch:
            request = self._pending.pop(0)
            if request.future.done():
                self.dropped_timeout += 1
                continue
            batch.append(request)
        return batch

    async def _execute_batch(self, batch: List[PendingRequest]) -> None:
        """Run one flush: group by options, one backend call per group."""
        groups: Dict[Tuple, List[PendingRequest]] = {}
        for request in batch:
            groups.setdefault(request.signature, []).append(request)
        for group in groups.values():
            for request in group:
                request.batch_size = len(group)
            try:
                results = await self.backend.run_group(group)
            # repro: allow[REP403] not swallowed: the exception is forwarded
            # into every waiting request future, so each caller re-raises it;
            # narrowing here would instead kill the flusher task and hang
            # every queued request behind this group.
            except Exception as exc:
                # A bad option set fails its whole group (every request in
                # the group shares the same options); other groups and the
                # flusher itself are unaffected.
                for request in group:
                    if not request.future.done():
                        request.future.set_exception(exc)
                continue
            self.batches_executed += 1
            self.requests_executed += len(group)
            self.largest_batch = max(self.largest_batch, len(group))
            size = len(group)
            self.batch_size_counts[size] = (
                self.batch_size_counts.get(size, 0) + 1
            )
            for request, result in zip(group, results):
                if not request.future.done():
                    request.future.set_result(result)
