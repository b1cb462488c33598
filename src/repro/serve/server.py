"""The asyncio serving front end: one warm session, many connections.

:class:`SearchServer` binds a socket, owns exactly one
:class:`~repro.api.Searcher` session, and answers three routes:

``POST /search``
    One query per request: ``{"query": [...], "k": 5, "options": {...}}``.
    The request joins the :class:`~repro.serve.coalescer.QueryCoalescer`
    queue and is answered when its flush executes — bit-identical to
    calling ``searcher.search`` with the same arguments, ``exact=False``
    included.  ``batch_size`` in the answer is the size of its flush's
    option-group.
``GET /healthz``
    Liveness plus the effective :class:`~repro.serve.config.ServeConfig`.
``GET /stats``
    Serving counters: totals, rejections, timeouts, flush sizes.

Robustness contract (pinned by the test suite): a request that cannot be
answered inside ``request_timeout_ms`` gets a descriptive **504** and is
dropped from the queue without executing; arrivals beyond
``max_queue_depth`` get an immediate **429**; :meth:`SearchServer.stop`
drains queued requests before the session goes away (**503** for arrivals
during the drain).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.serve.coalescer import (
    BackendUnavailable,
    PendingRequest,
    QueryCoalescer,
    SearcherBackend,
)
from repro.serve.config import ServeConfig
from repro.serve.http import (
    HttpError,
    error_payload,
    json_body,
    read_request,
    response_bytes,
)

#: ``options`` keys that are fixed per session; a request naming one gets a
#: 400 up front instead of failing its whole option-group at execution.
_SESSION_FIXED_OPTIONS = ("n_jobs", "executor", "storage")


class SearchServer:
    """Serve one warm :class:`~repro.api.Searcher` over HTTP.

    The server owns request framing, routing, per-request deadlines, and
    graceful shutdown; all query execution is delegated to its
    :class:`~repro.serve.coalescer.QueryCoalescer` (and through it to the
    session's ordinary ``batch_search``).  It does **not** own the
    session's lifecycle: the caller that opened the ``Searcher`` closes
    it, after :meth:`stop` returns.
    """

    def __init__(
        self,
        searcher: Any,
        config: Optional[ServeConfig] = None,
        *,
        backend: Any = None,
    ) -> None:
        if backend is None:
            # The closed-session check lives in SearcherBackend; custom
            # backends (the cluster router) own no session at all.
            backend = SearcherBackend(searcher)
        self.searcher = searcher
        self.backend = backend
        self.config = config or ServeConfig()
        self.coalescer = QueryCoalescer(
            backend,
            max_batch=self.config.max_batch,
            max_queue_depth=self.config.max_queue_depth,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["asyncio.Task[None]"] = set()
        self._draining = False
        #: The bound port (resolves ``port=0`` after :meth:`start`).
        self.port: Optional[int] = None
        # Serving counters beyond the coalescer's own.
        self.requests_total = 0
        self.timeouts = 0
        self.rejected = 0

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self.coalescer.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        sockets = self._server.sockets
        self.port = int(sockets[0].getsockname()[1]) if sockets else None

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the queue, hang up.

        Requests already queued when the drain begins are executed and
        answered (within ``drain_timeout_s``); requests arriving during
        the drain are answered 503 so clients know to go elsewhere rather
        than time out against a dead socket.
        """
        self._draining = True
        if self._server is not None:
            # Stop accepting; existing connections stay up so their queued
            # queries can be answered.  wait_closed() must come *after* the
            # drain: on Python >= 3.12.1 it waits for those connections,
            # which cannot finish until their answers are written.
            self._server.close()
        await self.coalescer.drain(self.config.drain_timeout_s)
        # In-flight handlers now only have responses left to write (and
        # close — draining connections don't keep-alive); idle connections
        # are waiting on a read that will never come, so give everyone a
        # beat and then hang up.
        if self._connections:
            await asyncio.wait(
                set(self._connections), timeout=self.config.drain_timeout_s
            )
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.port = None

    # ----------------------------------------------------------- connections

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve_connection(reader, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racy close
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                # After a framing error the stream position is garbage;
                # answer and hang up.
                writer.write(response_bytes(
                    exc.status, error_payload(exc.status, exc.message),
                    keep_alive=False,
                ))
                await _safe_drain(writer)
                return
            if request is None:
                return
            method, path, headers, body = request
            status, payload = await self._route(method, path, body)
            keep_alive = headers.get("connection", "").lower() != "close"
            try:
                writer.write(response_bytes(status, payload, keep_alive=keep_alive))
                await writer.drain()
            except (ConnectionError, OSError):
                return
            if not keep_alive or self._draining:
                # During a drain every answered connection closes, so
                # stop() observes completion instead of waiting out its
                # timeout against idle keep-alive reads.
                return

    # ---------------------------------------------------------------- routes

    def _routes(
        self,
    ) -> Dict[str, Tuple[str, Callable[[bytes], Awaitable[Dict[str, Any]]]]]:
        """Route table: path -> (method, async handler).

        Subclasses (the cluster tier's shard and router servers) extend
        the dictionary instead of re-implementing the dispatch/framing
        machinery.
        """
        return {
            "/search": ("POST", self._handle_search),
            "/healthz": ("GET", self._handle_healthz),
            "/stats": ("GET", self._handle_stats),
        }

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            routes = self._routes()
            entry = routes.get(path)
            if entry is None:
                raise HttpError(
                    404,
                    f"unknown path {path!r}; routes are "
                    + ", ".join(routes),
                )
            expected_method, handler = entry
            if method != expected_method:
                raise HttpError(405, f"use {expected_method} for {path}")
            return 200, await handler(body)
        except HttpError as exc:
            return exc.status, error_payload(exc.status, exc.message)
        # repro: allow[REP403] last-resort handler of the HTTP route: any
        # unanticipated failure must become a 500 response naming the error,
        # because the alternative is a dropped connection with no answer.
        except Exception as exc:
            return 500, error_payload(500, f"{type(exc).__name__}: {exc}")

    async def _handle_search(self, body: bytes) -> Dict[str, Any]:
        self.requests_total += 1
        if self._draining:
            raise HttpError(
                503, "server is draining for shutdown and no longer "
                "accepts new queries"
            )
        query, k, overrides = _parse_search_payload(json_body(body))
        request = PendingRequest(
            query,
            k=k,
            overrides=overrides,
            future=asyncio.get_running_loop().create_future(),
        )
        if not self.coalescer.submit(request):
            self.rejected += 1
            raise HttpError(
                429,
                f"coalescing queue is full ({self.config.max_queue_depth} "
                "queries waiting); retry with backoff or raise "
                "max_queue_depth",
            )
        try:
            result = await asyncio.wait_for(
                request.future, timeout=self.config.request_timeout_ms / 1000.0
            )
        except asyncio.TimeoutError:
            # wait_for cancelled the future, so the flusher drops the
            # request (if still queued) instead of computing a dead answer.
            self.timeouts += 1
            raise HttpError(
                504,
                f"query was not answered within request_timeout_ms="
                f"{self.config.request_timeout_ms:g}ms (queue depth "
                f"{self.coalescer.depth}); raise the timeout or reduce load",
            )
        except asyncio.CancelledError:
            raise HttpError(
                503, "server shut down before this query could execute"
            )
        except BackendUnavailable as exc:
            # The backend (a cluster with a dead shard, typically) cannot
            # answer right now; the message names what is down and why.
            raise HttpError(503, str(exc))
        except (TypeError, ValueError) as exc:
            # The engine rejected the query/options (wrong dimension, a
            # kwarg this family does not accept, ...): the client's fault,
            # reported as such.
            raise HttpError(400, f"{type(exc).__name__}: {exc}")
        return {
            "indices": [int(i) for i in result.indices],
            "distances": [float(d) for d in result.distances],
            "k": int(len(result.indices)),
            "batch_size": request.batch_size,
        }

    async def _handle_healthz(self, body: bytes) -> Dict[str, Any]:
        return self._healthz_payload()

    async def _handle_stats(self, body: bytes) -> Dict[str, Any]:
        return self._stats_payload()

    def _healthz_payload(self) -> Dict[str, Any]:
        described = self.backend.describe()
        config = dict(self.config.to_dict(), port=self.port)
        payload = {
            "status": "draining" if self._draining else "ok",
            "coalescing": self.config.coalescing,
            "config": config,
        }
        payload.update(described)
        return payload

    def _stats_payload(self) -> Dict[str, Any]:
        coalescer = self.coalescer
        executed = coalescer.requests_executed
        batches = coalescer.batches_executed
        return {
            "requests_total": self.requests_total,
            "requests_executed": executed,
            "rejected_429": self.rejected,
            "timeouts_504": self.timeouts,
            "batches_executed": batches,
            "flushes": coalescer.flushes,
            "mean_batch_size": (executed / batches) if batches else 0.0,
            "largest_batch": coalescer.largest_batch,
            "batches_by_size": {
                str(size): count
                for size, count in sorted(coalescer.batch_size_counts.items())
            },
            "queue_depth": coalescer.depth,
        }


def _parse_search_payload(
    payload: Dict[str, Any],
) -> Tuple[np.ndarray, Optional[int], Dict[str, Any]]:
    """Validate one ``POST /search`` body into ``(query, k, overrides)``."""
    unknown = set(payload) - {"query", "k", "options"}
    if unknown:
        raise HttpError(
            400, "unknown request keys: " + ", ".join(sorted(unknown))
        )
    if "query" not in payload:
        raise HttpError(400, "request must carry a 'query' array")
    try:
        query = np.asarray(payload["query"], dtype=np.float64)
    except (TypeError, ValueError):
        raise HttpError(400, "'query' must be an array of numbers")
    if query.ndim != 1 or query.size == 0:
        raise HttpError(
            400,
            f"'query' must be a non-empty 1-d array, got shape {query.shape}",
        )
    if not np.all(np.isfinite(query)):
        raise HttpError(400, "'query' must contain only finite numbers")
    k = payload.get("k")
    if k is not None:
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise HttpError(400, f"'k' must be an integer >= 1, got {k!r}")
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise HttpError(
            400, f"'options' must be an object, got {type(options).__name__}"
        )
    for fixed in _SESSION_FIXED_OPTIONS:
        if fixed in options:
            raise HttpError(
                400,
                f"option {fixed!r} is fixed for the lifetime of the serving "
                "session; restart the server to change it",
            )
    return query, k, dict(options)


async def _safe_drain(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.drain()
    except (ConnectionError, OSError):  # pragma: no cover - peer hung up
        pass


# --------------------------------------------------------------- entry points


async def serve_forever(
    searcher: Any,
    config: Optional[ServeConfig] = None,
    *,
    ready: Optional[threading.Event] = None,
    stop_event: Optional[asyncio.Event] = None,
    on_start: Optional[Callable[["SearchServer"], None]] = None,
    server_factory: Optional[Callable[..., "SearchServer"]] = None,
) -> None:
    """Start a server and run until ``stop_event`` (or cancellation).

    ``ready`` (a *threading* event) is set once the socket is bound —
    the handshake :class:`BackgroundServer` and the CLI use to know the
    port is live.  ``on_start`` is called with the server once started.
    ``server_factory`` swaps in a :class:`SearchServer` subclass (the
    cluster tier's shard/router servers ride the same lifecycle).
    """
    server = (server_factory or SearchServer)(searcher, config)
    await server.start()
    try:
        if on_start is not None:
            on_start(server)
        if ready is not None:
            ready.set()
        if stop_event is None:
            stop_event = asyncio.Event()
        await stop_event.wait()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def run_server(
    searcher: Any,
    config: Optional[ServeConfig] = None,
    *,
    on_start: Optional[Callable[["SearchServer"], None]] = None,
) -> None:
    """Blocking entry point (the ``repro serve`` CLI): serve until Ctrl-C."""
    try:
        asyncio.run(serve_forever(searcher, config, on_start=on_start))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass


class BackgroundServer:
    """A :class:`SearchServer` on its own thread + event loop.

    The shape tests and benchmarks need: start a live server next to
    synchronous driver code, talk to it over real sockets, and tear it
    down deterministically.

    >>> with BackgroundServer(searcher, ServeConfig()) as server:   # doctest: +SKIP
    ...     port = server.port
    """

    def __init__(
        self,
        searcher: Any,
        config: Optional[ServeConfig] = None,
        *,
        server_factory: Optional[Callable[..., SearchServer]] = None,
    ) -> None:
        self._searcher = searcher
        self._config = config or ServeConfig()
        self._server_factory = server_factory
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._server: Optional[SearchServer] = None
        self._startup_error: Optional[BaseException] = None
        self.port: Optional[int] = None

    def __enter__(self) -> "BackgroundServer":
        ready = threading.Event()

        def runner() -> None:
            async def main() -> None:
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                try:
                    await serve_forever(
                        self._searcher,
                        self._config,
                        ready=ready,
                        stop_event=self._stop,
                        on_start=self._capture,
                        server_factory=self._server_factory,
                    )
                except BaseException as exc:  # noqa: BLE001 - report to starter
                    self._startup_error = exc
                    ready.set()
                    raise

            asyncio.run(main())

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("serving thread failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serving thread failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _capture(self, server: SearchServer) -> None:
        self._server = server
        self.port = server.port

    @property
    def stats(self) -> Dict[str, Any]:
        """A snapshot of the live server's counters (for assertions)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server._stats_payload()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            if self._thread.is_alive():  # pragma: no cover - hung shutdown
                raise RuntimeError("serving thread did not shut down within 30s")
        self._thread = None
        self._loop = None
        self.port = None
