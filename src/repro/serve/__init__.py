"""Async serving front end: query coalescing over a warm Searcher session.

Live traffic arrives one query per request, while the engine answers a
block of queries in one ``batch_search`` call.  This package joins the
two with a stdlib-only asyncio HTTP server that owns a single
:class:`~repro.api.Searcher` session and **coalesces** concurrent
single-query requests by group commit: a request joins a queue, and
whenever the compute thread is free the flusher cuts everything queued
(at most ``max_batch``) into one flush.  An idle server answers a lone
query at once; a busy one batches what queued behind its current flush.
Flushes execute through the session's ordinary ``batch_search``, in
slices of at most 64 rows, so every coalesced answer, exact or
``exact=False``, is bit-identical to the per-query answer.  The event loop must never block on
compute — searches run on the coalescer's executor — and ``repro
check`` rule REP302 enforces this statically, alongside the public
error contracts REP401-REP403 (descriptive exceptions, no silent broad
handlers).

Entry points: :class:`ServeConfig` (the knobs), :class:`SearchServer` /
:func:`run_server` (the server; also ``repro serve`` on the command
line), :class:`BackgroundServer` (a server on its own thread, for tests
and benchmarks), and :class:`ServeClient` (a keep-alive client).

Execution is pluggable: the coalescer flushes through a *backend* —
:class:`SearcherBackend` (one local session on a compute thread) by
default, or the cluster tier's scatter-gather backend
(:mod:`repro.cluster`), which fans each flush out to shard processes and
reports outages as :class:`BackendUnavailable` (HTTP 503).
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.coalescer import (
    BackendUnavailable,
    PendingRequest,
    QueryCoalescer,
    SearcherBackend,
    options_signature,
)
from repro.serve.config import ServeConfig
from repro.serve.http import HttpError
from repro.serve.server import (
    BackgroundServer,
    SearchServer,
    run_server,
    serve_forever,
)

__all__ = [
    "BackendUnavailable",
    "BackgroundServer",
    "HttpError",
    "PendingRequest",
    "QueryCoalescer",
    "SearchServer",
    "SearcherBackend",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "options_signature",
    "run_server",
    "serve_forever",
]
