"""Scatter-gather router: one front door, many shard processes.

:class:`ScatterGatherBackend` plugs into the serving front end's
coalescer as its execution backend: every flushed option-group is
scattered to **all** shard servers concurrently as one ``/search_batch``
block, the per-shard top-k lists are gathered, and the rows are merged
with :func:`repro.core.partitioned.merge_shard_batches` — literally the
same function the in-process
:class:`~repro.core.partitioned.PartitionedP2HIndex` merges with, so a
gathered answer is bit-identical to the single-process ``batch_search``
over the same placement.  Distances travel as JSON floats, whose
``repr`` round-trip is exact for float64, so the wire does not perturb
the merge.

Consistency: every shard stamps its responses with a snapshot version,
and routed updates (:meth:`ScatterGatherBackend.route_update`) bump every
shard's version uniformly — so a gather whose responses disagree on the
version straddled an in-flight update and is retried against the settled
snapshot.  Queries therefore observe either the pre-update or the
post-update cluster, never a mix.

Failure: a shard that cannot be reached raises :class:`ShardDownError`
(a :class:`~repro.serve.BackendUnavailable`), which the front end answers
as a descriptive 503 naming the dead shard; the cluster serves again as
soon as the shard is restarted (:meth:`ClusterManager.restart_shard
<repro.cluster.manager.ClusterManager.restart_shard>`).
"""

from __future__ import annotations

import asyncio
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.shard import parse_update_rows
from repro.core.partitioned import merge_shard_batches
from repro.core.results import SearchResult, SearchStats
from repro.engine.batch import BatchSearchResult, pool_results
from repro.serve.client import ServeClient, ServeError
from repro.serve.coalescer import BackendUnavailable, PendingRequest
from repro.serve.config import ServeConfig
from repro.serve.http import HttpError, json_body
from repro.serve.server import SearchServer

#: Gathers that straddle an in-flight update retry this many times
#: (updates settle in milliseconds; see _VERSION_RETRY_SLEEP_S).
VERSION_RETRIES = 10
_VERSION_RETRY_SLEEP_S = 0.02


class ShardDownError(BackendUnavailable):
    """A shard process is unreachable; the cluster is serving degraded."""

    def __init__(self, shard_id: int, address: str, cause: str) -> None:
        super().__init__(
            f"shard {shard_id} at {address} is unreachable ({cause}); "
            "the cluster is serving degraded until it is restarted"
        )
        self.shard_id = shard_id


class ShardLink:
    """The router's live handle on one shard server.

    Owns the keep-alive :class:`~repro.serve.ServeClient` (one per link —
    the client is not task-concurrent, so an asyncio lock serializes it),
    the shard's local-position -> global-id map, and the address, which
    :meth:`set_address` swaps when the shard is restarted on a new port.
    """

    def __init__(
        self, shard_id: int, host: str, port: int, point_ids: np.ndarray
    ) -> None:
        self.shard_id = int(shard_id)
        self.host = host
        self.port = int(port)
        self.point_ids = np.asarray(point_ids, dtype=np.int64)
        # Local ids are assigned densely from 0 in point_ids order (the
        # position-as-local-id invariant of the cluster builders), so the
        # next insert's local id is simply the map's length.
        self.next_local_id = int(self.point_ids.size)
        self._client: Optional[ServeClient] = None
        self._lock: Optional[asyncio.Lock] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def set_address(self, port: int) -> None:
        """Point the link at a restarted shard (called on the router loop)."""
        self.port = int(port)
        self._client = None

    async def post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """POST to this shard, translating failures into router errors.

        Transport failures and shard 5xx answers become
        :class:`ShardDownError`; shard 400s (bad options, static shard
        asked to mutate) re-raise as :class:`ValueError` — the request's
        fault, reported as a 400 to the router's own client.
        """
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            try:
                if self._client is None:
                    client = ServeClient(self.host, self.port)
                    await client.connect()
                    self._client = client
                return await self._client.post(path, payload)
            except ServeError as exc:
                if exc.status == 400:
                    raise ValueError(exc.message) from exc
                self._client = None
                raise ShardDownError(
                    self.shard_id, self.address, f"HTTP {exc.status}: "
                    f"{exc.message}"
                ) from exc
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                self._client = None
                raise ShardDownError(
                    self.shard_id, self.address, type(exc).__name__
                ) from exc

    async def aclose(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()


class ScatterGatherBackend:
    """Coalescer execution backend fanning flushes out over shard links."""

    def __init__(
        self,
        links: Sequence[ShardLink],
        *,
        default_k: int = 10,
        initial_version: int = 0,
    ) -> None:
        if not links:
            raise ValueError("a cluster needs at least one shard link")
        self.links = list(links)
        self.default_k = int(default_k)
        #: The cluster snapshot version (bumped by every routed update).
        self.version = int(initial_version)
        self._update_lock: Optional[asyncio.Lock] = None
        self._next_global_id = int(
            max(
                (int(link.point_ids.max()) for link in self.links
                 if link.point_ids.size),
                default=-1,
            )
            + 1
        )
        # Global id -> (shard index, shard-local id), for delete routing.
        self._directory: Dict[int, Tuple[int, int]] = {}
        for shard_index, link in enumerate(self.links):
            for local, global_id in enumerate(link.point_ids):
                self._directory[int(global_id)] = (shard_index, local)

    # ------------------------------------------------------ backend surface

    def start(self) -> None:
        """Called on the event loop before the first group executes."""

    async def aclose(self) -> None:
        for link in self.links:
            await link.aclose()

    def describe(self) -> Dict[str, Any]:
        """Identity payload for the router's ``/healthz`` route."""
        return {
            "index": "cluster",
            "num_points": len(self._directory),
            "version": self.version,
            "shards": [
                {
                    "id": link.shard_id,
                    "address": link.address,
                    "points": int(link.point_ids.size),
                }
                for link in self.links
            ],
        }

    async def run_group(self, group: List[PendingRequest]) -> List[Any]:
        """Answer one coalesced option-group via scatter-gather."""
        head = group[0]
        queries = np.stack([request.query for request in group])
        k = self.default_k if head.k is None else head.k
        return await self.scatter(queries, k, dict(head.overrides))

    # ------------------------------------------------------------- scatter

    async def scatter(
        self, queries: np.ndarray, k: int, overrides: Dict[str, Any]
    ) -> List[SearchResult]:
        """One block against every shard; merged rows in query order.

        Retries (bounded) when the gathered responses straddle an
        in-flight snapshot update, so the merged answer always reflects
        one consistent cluster version.
        """
        payload = {
            "queries": queries.tolist(),
            "k": int(k),
            "options": overrides,
        }
        versions: set = set()
        for _ in range(VERSION_RETRIES):
            responses = await self._gather(payload)
            versions = {response["version"] for response in responses}
            if len(versions) == 1:
                return self._merge(responses, int(k), queries.shape[0])
            await asyncio.sleep(_VERSION_RETRY_SLEEP_S)
        raise BackendUnavailable(
            f"shards kept answering from mixed snapshot versions "
            f"({sorted(versions)}) after {VERSION_RETRIES} retries; "
            "an update may be stuck mid-route"
        )

    async def _gather(
        self, payload: Dict[str, Any]
    ) -> List[Dict[str, Any]]:
        """POST one block to all shards concurrently; first failure wins."""
        responses = await asyncio.gather(
            *(link.post("/search_batch", payload) for link in self.links),
            return_exceptions=True,
        )
        gathered: List[Dict[str, Any]] = []
        for response in responses:
            if isinstance(response, BaseException):
                raise response
            gathered.append(response)
        return gathered

    def _merge(
        self,
        responses: List[Dict[str, Any]],
        k: int,
        num_queries: int,
    ) -> List[SearchResult]:
        """Rebuild per-shard batches and run the partitioned block merge."""
        shard_batches: List[BatchSearchResult] = []
        for response in responses:
            rows = [
                SearchResult(
                    indices=np.asarray(row["indices"], dtype=np.int64),
                    distances=np.asarray(row["distances"], dtype=np.float64),
                    stats=SearchStats(),
                )
                for row in response["results"]
            ]
            if len(rows) != num_queries:
                raise BackendUnavailable(
                    f"a shard answered {len(rows)} rows for a block of "
                    f"{num_queries} queries; the cluster is inconsistent"
                )
            shard_batches.append(
                pool_results(rows, wall_seconds=0.0, cpu_seconds=0.0)
            )
        return merge_shard_batches(
            shard_batches,
            [link.point_ids for link in self.links],
            k,
            num_queries,
        )

    # ------------------------------------------------------------- updates

    async def route_update(
        self,
        inserts: np.ndarray,
        deletes: Sequence[int],
    ) -> Dict[str, Any]:
        """Route one insert/delete batch and bump the cluster snapshot.

        Inserts are dealt round-robin across shards (each new point gets
        the next global id); deletes are routed to the shard owning each
        id via the global directory.  **Every** shard receives the update
        request — shards with nothing to apply still bump their version —
        so the snapshot stays uniform and in-flight gathers can tell
        pre-update from post-update answers apart.
        """
        if self._update_lock is None:
            self._update_lock = asyncio.Lock()
        async with self._update_lock:
            new_version = self.version + 1
            num_shards = len(self.links)
            shard_inserts: List[List[List[float]]] = [
                [] for _ in range(num_shards)
            ]
            insert_plan: List[Tuple[int, int, int]] = []
            cursor = self._next_global_id
            for offset, row in enumerate(np.atleast_2d(inserts)):
                if row.size == 0:
                    continue
                shard_index = (cursor + offset) % num_shards
                link = self.links[shard_index]
                local_id = link.next_local_id + len(
                    shard_inserts[shard_index]
                )
                insert_plan.append((cursor + offset, shard_index, local_id))
                shard_inserts[shard_index].append(
                    [float(value) for value in row]
                )
            shard_deletes: List[List[int]] = [[] for _ in range(num_shards)]
            deleted_globals: List[int] = []
            for global_id in deletes:
                owner = self._directory.get(int(global_id))
                if owner is None:
                    continue
                shard_index, local_id = owner
                shard_deletes[shard_index].append(local_id)
                deleted_globals.append(int(global_id))

            responses = await asyncio.gather(
                *(
                    link.post(
                        "/update",
                        {
                            "version": new_version,
                            "inserts": shard_inserts[shard_index],
                            "deletes": shard_deletes[shard_index],
                        },
                    )
                    for shard_index, link in enumerate(self.links)
                ),
                return_exceptions=True,
            )
            for response in responses:
                if isinstance(response, BaseException):
                    raise response

            # Commit the routing state only after every shard confirmed,
            # checking the shards assigned exactly the local ids the
            # directory predicts (the position-as-local-id invariant).
            for shard_index, response in enumerate(responses):
                expected = [
                    local for _, owner, local in insert_plan
                    if owner == shard_index
                ]
                got = [int(i) for i in response["insert_ids"]]
                if got != expected:
                    raise BackendUnavailable(
                        f"shard {self.links[shard_index].shard_id} assigned "
                        f"local insert ids {got}, expected {expected}; the "
                        "cluster id directory has diverged — rebuild the "
                        "cluster directory"
                    )
            for global_id, shard_index, local_id in insert_plan:
                link = self.links[shard_index]
                link.point_ids = np.append(
                    link.point_ids, np.int64(global_id)
                )
                link.next_local_id = local_id + 1
                self._directory[global_id] = (shard_index, local_id)
            for global_id in deleted_globals:
                self._directory.pop(global_id, None)
            self._next_global_id = cursor + len(insert_plan)
            self.version = new_version
            return {
                "version": self.version,
                "insert_ids": [gid for gid, _, _ in insert_plan],
                "deleted": len(deleted_globals),
            }


class RouterServer(SearchServer):
    """The cluster's public front door.

    A :class:`~repro.serve.SearchServer` whose execution backend is a
    :class:`ScatterGatherBackend` instead of a local session: the same
    ``/search`` coalescing, deadlines, and drain semantics, with every
    flush scattered across the shard fleet, plus one cluster-only route:

    ``POST /update``
        ``{"inserts": [[...], ...], "deletes": [3, 9]}`` — route one
        insert/delete batch through the snapshot-versioned update path.
        Answers the assigned global ids and the new cluster version.
    """

    def __init__(
        self,
        searcher: Any = None,
        config: Optional[ServeConfig] = None,
        *,
        backend: Optional[ScatterGatherBackend] = None,
    ) -> None:
        # ``searcher`` exists only to match serve_forever's factory call
        # signature; the router owns no local session.
        if backend is None:
            raise ValueError(
                "RouterServer needs a ScatterGatherBackend; build one over "
                "the cluster's shard links"
            )
        super().__init__(searcher, config, backend=backend)

    def _routes(
        self,
    ) -> Dict[str, Tuple[str, Callable[[bytes], Awaitable[Dict[str, Any]]]]]:
        routes = super()._routes()
        routes["/update"] = ("POST", self._handle_update)
        return routes

    def _healthz_payload(self) -> Dict[str, Any]:
        payload = super()._healthz_payload()
        payload["role"] = "router"
        return payload

    async def _handle_update(self, body: bytes) -> Dict[str, Any]:
        if self._draining:
            raise HttpError(
                503, "server is draining for shutdown and no longer "
                "accepts updates"
            )
        inserts, deletes = parse_update_rows(json_body(body))
        backend = self.backend
        try:
            return await backend.route_update(inserts, deletes)
        except BackendUnavailable as exc:
            raise HttpError(503, str(exc))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"{type(exc).__name__}: {exc}")

