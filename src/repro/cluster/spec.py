"""Declarative cluster topology: shard count, per-shard index, serve knobs.

A :class:`ClusterSpec` is to the distributed tier what
:class:`~repro.api.IndexSpec` is to a single index: a frozen,
JSON-round-trippable description of the whole deployment — how many shard
processes, which index family each shard serves (a nested
:class:`~repro.api.IndexSpec`), how the data is placed onto shards, and
the serving knobs the router runs with.  The manifest a cluster directory
carries (:mod:`repro.cluster.manifest`) embeds the spec, so a cluster can
be restarted from disk with nothing but its directory path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api.specs import NESTED_SPEC_KEY, IndexSpec
from repro.core.partitioned import PARTITION_STRATEGIES

#: Spec kinds whose shards accept routed inserts/deletes (the nested
#: ``index`` spec of a ``dynamic`` shard selects what each rebuild uses).
UPDATABLE_KINDS = ("dynamic",)


@dataclass(frozen=True)
class ClusterSpec:
    """One scatter-gather deployment, declaratively.

    Parameters
    ----------
    num_shards:
        Number of shard processes (each owns one disjoint slice of the
        data behind its own warm :class:`~repro.api.Searcher`).
    index:
        The :class:`~repro.api.IndexSpec` every shard builds/serves.  Use
        kind ``"dynamic"`` (with a nested sub-index spec) for shards that
        accept routed inserts and deletes; any static kind yields a
        read-only cluster.
    strategy:
        How points are placed onto shards when a cluster is built from
        raw data — one of :data:`~repro.core.partitioned.PARTITION_STRATEGIES`
        (splitting an existing partitioned payload keeps its placement).
    host:
        Interface the shard and router sockets bind (default loopback).
    shard_ports:
        One port per shard, or empty for ephemeral ports everywhere; a
        partial list is rejected rather than silently padded.
    router_port:
        The router's port (0 for ephemeral).
    default_k:
        ``k`` used for routed queries that do not carry their own.
    max_batch / max_wait_ms / max_queue_depth / request_timeout_ms:
        The router's coalescing and robustness knobs, with the same
        semantics as :class:`~repro.serve.ServeConfig`.  The router
        flushes by group commit, so ``max_wait_ms`` has no effect; it
        is still accepted and validated because saved manifests carry
        it.
    """

    num_shards: int
    index: IndexSpec = field(
        default_factory=lambda: IndexSpec("bc_tree")
    )
    strategy: str = "contiguous"
    host: str = "127.0.0.1"
    shard_ports: Tuple[int, ...] = ()
    router_port: int = 0
    default_k: int = 10
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1024
    request_timeout_ms: float = 10000.0

    def __post_init__(self) -> None:
        if (
            isinstance(self.num_shards, bool)
            or not isinstance(self.num_shards, int)
            or self.num_shards < 1
        ):
            raise ValueError(
                f"num_shards must be an integer >= 1, got {self.num_shards!r}"
            )
        object.__setattr__(self, "index", IndexSpec.from_dict(self.index))
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{PARTITION_STRATEGIES}"
            )
        ports = tuple(int(port) for port in self.shard_ports)
        if ports and len(ports) != self.num_shards:
            raise ValueError(
                f"shard_ports lists {len(ports)} ports for "
                f"{self.num_shards} shards; pass one port per shard or "
                "none at all (ephemeral)"
            )
        object.__setattr__(self, "shard_ports", ports)
        if self.default_k < 1:
            raise ValueError(f"default_k must be >= 1, got {self.default_k}")

    # ------------------------------------------------------------ properties

    @property
    def updatable(self) -> bool:
        """Whether shards accept routed inserts/deletes (dynamic shards)."""
        return self.index.kind in UPDATABLE_KINDS

    def shard_port(self, shard_id: int) -> int:
        """Configured port of one shard (0 when ephemeral)."""
        if not self.shard_ports:
            return 0
        return self.shard_ports[shard_id]

    # ----------------------------------------------------------- round trips

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dictionary form (the nested index spec becomes a dict)."""
        return {
            "num_shards": self.num_shards,
            NESTED_SPEC_KEY: self.index.to_dict(),
            "strategy": self.strategy,
            "host": self.host,
            "shard_ports": list(self.shard_ports),
            "router_port": self.router_port,
            "default_k": self.default_k,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_queue_depth": self.max_queue_depth,
            "request_timeout_ms": self.request_timeout_ms,
        }

    @classmethod
    def from_dict(
        cls, data: Union[Mapping[str, Any], "ClusterSpec"]
    ) -> "ClusterSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a JSON config)."""
        if isinstance(data, ClusterSpec):
            return data
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a cluster spec must be a mapping, got {type(data).__name__}"
            )
        data = dict(data)
        if "num_shards" not in data:
            raise ValueError("a cluster spec requires a 'num_shards' key")
        known = {
            "num_shards", NESTED_SPEC_KEY, "strategy", "host", "shard_ports",
            "router_port", "default_k", "max_batch", "max_wait_ms",
            "max_queue_depth", "request_timeout_ms",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                "unknown cluster spec keys: " + ", ".join(sorted(unknown))
            )
        kwargs: Dict[str, Any] = dict(data)
        nested = kwargs.pop(NESTED_SPEC_KEY, None)
        if nested is not None:
            kwargs["index"] = IndexSpec.from_dict(nested)
        ports = kwargs.get("shard_ports")
        if ports is not None:
            kwargs["shard_ports"] = tuple(int(port) for port in ports)
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        """Deserialize from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # -------------------------------------------------------------- builders

    @classmethod
    def from_partitioned_spec(
        cls,
        spec: Union[IndexSpec, Mapping[str, Any]],
        **overrides: Any,
    ) -> "ClusterSpec":
        """Cluster topology mirroring a ``partitioned`` index spec.

        One shard process per partition, serving the partitioned spec's
        nested sub-index, placed with the same strategy — the deployment
        whose gathered answers are bit-identical to running the
        partitioned index in one process.
        """
        spec = IndexSpec.from_dict(spec)
        if spec.kind != "partitioned":
            raise ValueError(
                "from_partitioned_spec needs a 'partitioned' spec, "
                f"got kind {spec.kind!r}"
            )
        params = dict(spec.params)
        nested = params.get(NESTED_SPEC_KEY)
        kwargs: Dict[str, Any] = {
            "num_shards": int(params.get("num_partitions", 4)),
            "strategy": str(params.get("strategy", "ball")),
        }
        if nested is not None:
            kwargs["index"] = IndexSpec.from_dict(nested)
        kwargs.update(overrides)
        return cls(**kwargs)


def resolve_cluster_spec(
    spec: Union[ClusterSpec, Mapping[str, Any], str]
) -> ClusterSpec:
    """Coerce a spec, dict, or JSON string into a :class:`ClusterSpec`."""
    if isinstance(spec, str):
        return ClusterSpec.from_json(spec)
    return ClusterSpec.from_dict(spec)
