"""One shard process: a warm Searcher plus the block and update routes.

:class:`ShardServer` extends the single-process serving front end
(:class:`~repro.serve.SearchServer` — same framing, coalescer, drain and
error contract) with the two routes the scatter-gather router speaks:

``POST /search_batch``
    ``{"queries": [[...], ...], "k": 5, "options": {...}}`` — answer a
    whole query block in one request.  The block executes on the shard's
    single compute thread exactly as the coalescer's flushes do
    (:func:`~repro.serve.coalescer.search_rows`: ``batch_search`` over
    slices of at most 64 rows, so every row answers as its one-row
    ``search``), and the response carries the **snapshot version** the
    block observed, so the router can detect a gather that straddled an
    update.
``POST /update``
    ``{"version": 7, "inserts": [[...], ...], "deletes": [3, 9]}`` —
    apply one update batch atomically.  The version must be exactly one
    past the shard's current version (the router bumps every shard
    uniformly, including shards an update does not touch); running the
    whole batch on the compute thread means no search ever observes a
    half-applied update.  Shards serving a static index reject non-empty
    updates.

:func:`shard_process_main` is the spawn entry point: load the shard's
payload, open a session, serve, and hand the bound port back through a
pipe.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.coalescer import search_rows
from repro.serve.config import ServeConfig
from repro.serve.http import HttpError, json_body
from repro.serve.server import SearchServer


class ShardServer(SearchServer):
    """A :class:`~repro.serve.SearchServer` owning one shard of the data."""

    def __init__(
        self,
        searcher: Any,
        config: Optional[ServeConfig] = None,
        *,
        shard_id: int = 0,
        initial_version: int = 0,
    ) -> None:
        super().__init__(searcher, config)
        self.shard_id = int(shard_id)
        # Snapshot version: read and bumped only on the compute thread, so
        # a /search_batch response's version is exactly the state its
        # results were computed against.
        self._version = int(initial_version)

    def _routes(
        self,
    ) -> Dict[str, Tuple[str, Callable[[bytes], Awaitable[Dict[str, Any]]]]]:
        routes = super()._routes()
        routes["/search_batch"] = ("POST", self._handle_search_batch)
        routes["/update"] = ("POST", self._handle_update)
        return routes

    def _healthz_payload(self) -> Dict[str, Any]:
        payload = super()._healthz_payload()
        payload["role"] = "shard"
        payload["shard_id"] = self.shard_id
        payload["version"] = self._version
        return payload

    # --------------------------------------------------------------- /search_batch

    async def _handle_search_batch(self, body: bytes) -> Dict[str, Any]:
        queries, k, overrides = _parse_batch_payload(json_body(body))

        def run() -> Dict[str, Any]:
            index = self.searcher.index
            live = int(getattr(index, "num_points", 0) or 0)
            if live < 1:
                return {"version": self._version, "results": []}
            # Clamp to the shard's own live count — the same per-shard
            # ``shard_k = min(k, ids.size)`` the in-process partitioned
            # index requests, read under the compute thread so it matches
            # the snapshot the block executes against.
            shard_k = min(k, live)
            rows = search_rows(self.searcher, queries, shard_k, overrides)
            return {
                "version": self._version,
                "results": [
                    {
                        "indices": [int(i) for i in row.indices],
                        "distances": [float(d) for d in row.distances],
                    }
                    for row in rows
                ],
            }

        try:
            return await self.backend.run_serialized(run)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"{type(exc).__name__}: {exc}")

    # -------------------------------------------------------------------- /update

    async def _handle_update(self, body: bytes) -> Dict[str, Any]:
        version, inserts, deletes = _parse_update_payload(json_body(body))

        def run() -> Dict[str, Any]:
            if version != self._version + 1:
                raise ValueError(
                    f"update version {version} does not follow this shard's "
                    f"version {self._version}; the router bumps versions by "
                    "exactly one"
                )
            index = self.searcher.index
            insert_ids: List[int] = []
            deleted = 0
            if inserts.size or deletes:
                if not callable(getattr(index, "insert", None)):
                    raise ValueError(
                        f"this shard serves a static {type(index).__name__} "
                        "and cannot apply inserts/deletes; build the cluster "
                        "with a 'dynamic' shard spec for routed updates"
                    )
                if inserts.size:
                    insert_ids = [int(i) for i in index.insert(inserts)]
                if deletes:
                    deleted = int(index.delete(deletes))
            self._version = version
            return {
                "version": self._version,
                "insert_ids": insert_ids,
                "deleted": deleted,
            }

        try:
            return await self.backend.run_serialized(run)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"{type(exc).__name__}: {exc}")


def _parse_batch_payload(
    payload: Dict[str, Any],
) -> Tuple[np.ndarray, int, Dict[str, Any]]:
    """Validate one ``POST /search_batch`` body."""
    unknown = set(payload) - {"queries", "k", "options"}
    if unknown:
        raise HttpError(
            400, "unknown request keys: " + ", ".join(sorted(unknown))
        )
    if "queries" not in payload:
        raise HttpError(400, "request must carry a 'queries' matrix")
    try:
        queries = np.asarray(payload["queries"], dtype=np.float64)
    except (TypeError, ValueError):
        raise HttpError(400, "'queries' must be a matrix of numbers")
    if queries.ndim != 2 or queries.shape[0] == 0 or queries.shape[1] == 0:
        raise HttpError(
            400,
            "'queries' must be a non-empty 2-d matrix, got shape "
            f"{queries.shape}",
        )
    if not np.all(np.isfinite(queries)):
        raise HttpError(400, "'queries' must contain only finite numbers")
    k = payload.get("k")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise HttpError(400, f"'k' must be an integer >= 1, got {k!r}")
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise HttpError(
            400, f"'options' must be an object, got {type(options).__name__}"
        )
    return queries, k, dict(options)


def _parse_update_payload(
    payload: Dict[str, Any],
) -> Tuple[int, np.ndarray, List[int]]:
    """Validate one shard ``POST /update`` body: the router's plus a version."""
    rows = dict(payload)
    version = rows.pop("version", None)
    inserts, deletes = parse_update_rows(rows)
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise HttpError(
            400, f"'version' must be an integer >= 1, got {version!r}"
        )
    return version, inserts, deletes


def parse_update_rows(
    payload: Dict[str, Any],
) -> Tuple[np.ndarray, List[int]]:
    """Validate a router ``POST /update`` body (the shard's, less its version)."""
    unknown = set(payload) - {"inserts", "deletes"}
    if unknown:
        raise HttpError(
            400, "unknown request keys: " + ", ".join(sorted(unknown))
        )
    try:
        inserts = np.asarray(payload.get("inserts") or [], dtype=np.float64)
    except (TypeError, ValueError):
        raise HttpError(400, "'inserts' must be a matrix of numbers")
    if inserts.size and inserts.ndim != 2:
        raise HttpError(
            400, f"'inserts' must be a 2-d matrix, got shape {inserts.shape}"
        )
    if inserts.size and not np.all(np.isfinite(inserts)):
        raise HttpError(400, "'inserts' must contain only finite numbers")
    raw_deletes = payload.get("deletes") or []
    if not isinstance(raw_deletes, list):
        raise HttpError(400, "'deletes' must be a list of point ids")
    deletes: List[int] = []
    for item in raw_deletes:
        if isinstance(item, bool) or not isinstance(item, int):
            raise HttpError(400, f"'deletes' must hold integers, got {item!r}")
        deletes.append(int(item))
    return inserts, deletes


def shard_process_main(
    payload_path: str,
    config: ServeConfig,
    shard_id: int,
    initial_version: int,
    conn: Any,
) -> None:
    """Entry point of one spawned shard process.

    Loads the shard's payload, serves it, and reports either
    ``{"port": n}`` or ``{"error": msg}`` through ``conn`` exactly once.
    SIGTERM/SIGINT trigger the server's ordinary graceful drain.
    """
    from repro.api import Searcher, load_index

    try:
        index = load_index(payload_path)
        searcher = Searcher(index)
    # repro: allow[REP403] process boundary: any load failure must travel
    # back through the pipe as a descriptive message, because the parent
    # cannot see this process's traceback.
    except Exception as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        return

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        server = ShardServer(
            searcher,
            config,
            shard_id=shard_id,
            initial_version=initial_version,
        )
        try:
            await server.start()
        # repro: allow[REP403] same process boundary as above: a bind
        # failure is reported through the pipe, not a silent exit code.
        except Exception as exc:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
            conn.close()
            return
        conn.send({"port": server.port})
        conn.close()
        await stop.wait()
        await server.stop()

    with searcher:
        asyncio.run(main())
