"""Cluster lifecycle: spawn shards, run the router, restart the fallen.

:class:`ClusterManager` turns a cluster directory
(:mod:`repro.cluster.manifest`) into a live deployment: one shard server
per manifest entry — a real ``spawn``-ed process
(:class:`ProcessShard`) or, for cheap tests on small machines, a thread
inside this process (:class:`ThreadShard`) — plus the router front end
on its own background thread.  The manager owns health checks, draining,
and :meth:`restart_shard` for crashed shards; while a shard is down the
router answers descriptive 503s naming it, and service resumes as soon
as the restart lands.

Shards start together: :meth:`ClusterManager.start` launches every shard
process before it reads any port, so the shards import and load their
payloads in parallel, and each gets :data:`SPAWN_TIMEOUT_S` from its own
launch.  If one fails to start or misses the timeout (it is then killed
and joined), every launched shard is stopped and the ``RuntimeError``
names the shard.  :meth:`~ClusterManager.restart_shard` spawns its one
shard and waits for it.

A restarted shard serves its **on-disk snapshot**: routed inserts and
deletes applied since the directory was built live only in the shard
processes, so a crash loses them (the restart re-joins at the current
snapshot version, keeping reads consistent).  Durable updates are a
checkpointing concern out of scope here — re-save the shard payloads to
persist a mutated cluster.  A dynamic shard's payload holds one copy of
its points (see :mod:`repro.core.dynamic`), so such a re-save writes the
rows once.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
from typing import Any, Dict, List, Optional, Union

from os import PathLike

import numpy as np

from repro.cluster.manifest import ClusterManifest, read_manifest
from repro.cluster.router import RouterServer, ScatterGatherBackend, ShardLink
from repro.cluster.shard import ShardServer, shard_process_main
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.server import BackgroundServer, SearchServer

#: Seconds a spawning shard process gets to report its port.
SPAWN_TIMEOUT_S = 60.0


class ProcessShard:
    """One shard server in its own ``spawn``-ed process.

    Construction launches the process and returns at once; the shard
    imports and loads its payload in the background until
    :meth:`wait_ready` reads its port.
    """

    def __init__(
        self,
        payload_path: str,
        config: ServeConfig,
        shard_id: int,
        initial_version: int,
    ) -> None:
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        self.shard_id = int(shard_id)
        self.port = 0  # set by wait_ready
        self.process = context.Process(
            target=shard_process_main,
            args=(payload_path, config, shard_id, initial_version, child_conn),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        self._deadline = time.monotonic() + SPAWN_TIMEOUT_S

    def wait_ready(self) -> int:
        """Block until the shard reports its port; returns the port.

        A shard that misses :data:`SPAWN_TIMEOUT_S` (counted from its
        launch) is killed and joined; one that fails to load or bind has
        exited and is joined.  Either way the ``RuntimeError`` names it.
        """
        conn = self._conn
        try:
            if not conn.poll(max(0.0, self._deadline - time.monotonic())):
                self.kill()
                raise RuntimeError(
                    f"shard {self.shard_id} did not report a port within "
                    f"{SPAWN_TIMEOUT_S:g}s"
                )
            try:
                message = conn.recv()
            except EOFError:
                self.process.join(timeout=10)
                raise RuntimeError(
                    f"shard {self.shard_id} exited before reporting a port "
                    f"(exit code {self.process.exitcode})"
                ) from None
        finally:
            conn.close()
        if "error" in message:
            self.process.join(timeout=10)
            raise RuntimeError(
                f"shard {self.shard_id} failed to start: {message['error']}"
            )
        self.port = int(message["port"])
        return self.port

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        """Graceful shutdown: SIGTERM triggers the server's drain."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=30)
        if self.process.is_alive():  # pragma: no cover - hung shard
            self.process.kill()
            self.process.join(timeout=10)

    def kill(self) -> None:
        """Hard kill, then join: a shard that missed its spawn timeout, or
        the failure the degraded-serving tests inject."""
        self.process.kill()
        self.process.join(timeout=10)


class ThreadShard:
    """One shard server on a thread in this process (for cheap tests).

    Same server class and HTTP surface as :class:`ProcessShard`, without
    process isolation — the shape small-machine tests and the in-repo CI
    smoke use to exercise routing without paying per-process interpreter
    startup.  Owns the shard's index and session lifecycle.
    """

    def __init__(
        self,
        payload_path: str,
        config: ServeConfig,
        shard_id: int,
        initial_version: int,
    ) -> None:
        from repro.api import Searcher, load_index

        self.shard_id = int(shard_id)
        self._searcher = Searcher(load_index(payload_path))

        def factory(searcher: Any, cfg: Optional[ServeConfig]) -> SearchServer:
            return ShardServer(
                searcher,
                cfg,
                shard_id=shard_id,
                initial_version=initial_version,
            )

        self._server = BackgroundServer(
            self._searcher, config, server_factory=factory
        )
        try:
            self._server.__enter__()
        except BaseException:
            self._searcher.close()
            raise
        self.port = int(self._server.port or 0)
        self._stopped = False

    def wait_ready(self) -> int:
        """The port: construction already started the server."""
        return self.port

    @property
    def alive(self) -> bool:
        return not self._stopped

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        try:
            self._server.__exit__(None, None, None)
        finally:
            if not self._searcher.closed:
                self._searcher.close()

    def kill(self) -> None:
        # No process to kill; stopping the server severs the sockets,
        # which is the failure the router observes either way.
        self.stop()


class ClusterManager:
    """Run one cluster: shard fleet + scatter-gather router.

    Use as a context manager::

        with ClusterManager(cluster_dir) as cluster:
            answer = cluster.search(query, k=5)   # or talk HTTP to
            port = cluster.router_port            # the router directly

    Parameters
    ----------
    manifest:
        A cluster directory path, manifest path, or parsed
        :class:`~repro.cluster.manifest.ClusterManifest`.
    mode:
        ``"process"`` (default) spawns one process per shard;
        ``"thread"`` runs shard servers on threads in this process.
    """

    def __init__(
        self,
        manifest: Union[str, PathLike, ClusterManifest],
        *,
        mode: str = "process",
    ) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(
                f"unknown cluster mode {mode!r}; use 'process' or 'thread'"
            )
        if not isinstance(manifest, ClusterManifest):
            manifest = read_manifest(manifest)
        self.manifest = manifest
        self.spec = manifest.spec
        self.mode = mode
        self.shards: List[Union[ProcessShard, ThreadShard]] = []
        self.backend: Optional[ScatterGatherBackend] = None
        self._router: Optional[BackgroundServer] = None
        self.router_port: Optional[int] = None

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "ClusterManager":
        self.start()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()

    def start(self) -> None:
        """Start every shard, then the router over their live addresses.

        Every shard is launched before any port is read, so process
        shards import and load their payloads in parallel.  If a shard
        fails to start or misses :data:`SPAWN_TIMEOUT_S`, or the router
        cannot start, everything launched is stopped and the error
        (naming the shard) propagates.
        """
        try:
            self._start()
        except BaseException:
            self.stop()
            raise

    def _start(self) -> None:
        spec = self.spec
        for entry in self.manifest.shards:
            self.shards.append(
                self._spawn_shard(entry.shard_id, initial_version=0)
            )
        ports = [shard.wait_ready() for shard in self.shards]
        links = [
            ShardLink(entry.shard_id, spec.host, port, entry.load_point_ids())
            for entry, port in zip(self.manifest.shards, ports)
        ]
        backend = ScatterGatherBackend(links, default_k=spec.default_k)
        self.backend = backend

        def factory(searcher: Any, cfg: Optional[ServeConfig]) -> SearchServer:
            return RouterServer(searcher, cfg, backend=backend)

        router = BackgroundServer(
            None, self._router_config(), server_factory=factory
        )
        router.__enter__()
        self._router = router
        self.router_port = router.port

    def stop(self) -> None:
        """Drain the router, then stop every shard."""
        router, self._router = self._router, None
        if router is not None:
            router.__exit__(None, None, None)
        self.router_port = None
        shards, self.shards = self.shards, []
        for shard in shards:
            shard.stop()

    def _shard_config(self, shard_id: int) -> ServeConfig:
        spec = self.spec
        return ServeConfig(
            host=spec.host,
            port=spec.shard_port(shard_id),
            request_timeout_ms=spec.request_timeout_ms,
        )

    def _router_config(self) -> ServeConfig:
        spec = self.spec
        return ServeConfig(
            host=spec.host,
            port=spec.router_port,
            max_batch=spec.max_batch,
            max_wait_ms=spec.max_wait_ms,
            max_queue_depth=spec.max_queue_depth,
            request_timeout_ms=spec.request_timeout_ms,
        )

    def _spawn_shard(
        self, shard_id: int, *, initial_version: int
    ) -> Union[ProcessShard, ThreadShard]:
        entry = self.manifest.shards[shard_id]
        shard_cls = ProcessShard if self.mode == "process" else ThreadShard
        return shard_cls(
            str(entry.payload_path),
            self._shard_config(shard_id),
            shard_id,
            initial_version,
        )

    # ------------------------------------------------------------- operations

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one shard (the degraded-serving failure injection)."""
        self.shards[shard_id].kill()

    def restart_shard(self, shard_id: int) -> None:
        """Replace a dead shard with a fresh one over its on-disk payload.

        The replacement joins at the **current** cluster snapshot version
        (so version-uniformity checks pass immediately) but serves the
        directory's payload: updates routed since the directory was built
        are not replayed — see the module docstring.
        """
        backend = self.backend
        router = self._router
        if backend is None or router is None or router._loop is None:
            raise RuntimeError("the cluster is not running")
        shard = self._spawn_shard(
            shard_id, initial_version=backend.version
        )
        port = shard.wait_ready()
        old, self.shards[shard_id] = self.shards[shard_id], shard
        if old.alive:
            old.stop()
        link = backend.links[shard_id]
        # The link is only touched from the router's event loop.
        done = threading.Event()

        def swap() -> None:
            link.set_address(port)
            done.set()

        router._loop.call_soon_threadsafe(swap)
        if not done.wait(timeout=10):  # pragma: no cover - hung loop
            raise RuntimeError("router loop did not acknowledge the restart")

    def health(self) -> Dict[str, Any]:
        """The router's ``/healthz`` payload (a synchronous convenience)."""
        return self._sync_get("/healthz")

    def stats(self) -> Dict[str, Any]:
        """The router's ``/stats`` payload (a synchronous convenience)."""
        return self._sync_get("/stats")

    def search(
        self, query: Any, *, k: Optional[int] = None, **options: Any
    ) -> Dict[str, Any]:
        """One routed query via the router's public ``/search`` route."""

        async def call() -> Dict[str, Any]:
            async with ServeClient(self.spec.host, self._live_port()) as client:
                return await client.search(query, k=k, **options)

        return asyncio.run(call())

    def update(
        self,
        *,
        inserts: Optional[np.ndarray] = None,
        deletes: Optional[List[int]] = None,
    ) -> Dict[str, Any]:
        """Route one insert/delete batch via the router's ``/update``."""
        payload: Dict[str, Any] = {
            "inserts": (
                [] if inserts is None
                else np.asarray(inserts, dtype=np.float64).tolist()
            ),
            "deletes": [int(i) for i in (deletes or [])],
        }

        async def call() -> Dict[str, Any]:
            async with ServeClient(self.spec.host, self._live_port()) as client:
                return await client.post("/update", payload)

        return asyncio.run(call())

    def _sync_get(self, path: str) -> Dict[str, Any]:
        async def call() -> Dict[str, Any]:
            async with ServeClient(self.spec.host, self._live_port()) as client:
                return await client.get(path)

        return asyncio.run(call())

    def _live_port(self) -> int:
        if self.router_port is None:
            raise RuntimeError("the cluster is not running")
        return int(self.router_port)
