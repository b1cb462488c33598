"""Validated configuration of the serving front end.

One frozen dataclass holds every serving knob — flush size, queue depth,
per-request deadline, bind address — validated up front in one
place (the same philosophy as :class:`repro.api.SearchOptions`): a typo'd
or out-of-range knob fails at construction with a descriptive
:class:`ValueError`, never as a hung server or a silent behavior change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.SearchServer`.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` asks the OS for an ephemeral port (the
        bound port is reported by ``SearchServer.port`` after start) —
        the right default for tests and benchmarks.
    max_batch:
        Most queries one coalesced flush may carry; a flush above 64
        rows runs as several ``batch_search`` slices.  ``1`` disables
        coalescing: every request executes as its own single-query batch
        (the per-query serving baseline the benchmark compares against).
    max_wait_ms:
        Accepted and validated (``>= 0``) but has **no effect**: the
        coalescer flushes by group commit, cutting whatever is queued the
        moment the compute thread is free, so no query waits for
        companions.  Kept because saved cluster manifests and existing
        command lines carry it.
    max_queue_depth:
        Most requests that may sit in the coalescing queue awaiting
        execution.  Arrivals beyond it are rejected immediately with
        HTTP 429 — bounded memory under overload instead of an
        ever-growing queue whose every entry times out anyway.
    request_timeout_ms:
        Per-request deadline, measured from arrival.  A request that has
        not been answered in time gets HTTP 504 and, if still queued,
        is dropped without executing.
    drain_timeout_s:
        Graceful-shutdown budget: how long ``stop()`` waits for queued
        requests to finish executing before abandoning them.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1024
    request_timeout_ms: float = 10_000.0
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ValueError(f"host must be a non-empty string, got {self.host!r}")
        if not isinstance(self.port, int) or not (0 <= self.port <= 65535):
            raise ValueError(f"port must be an int in [0, 65535], got {self.port!r}")
        if not isinstance(self.max_batch, int) or self.max_batch < 1:
            raise ValueError(f"max_batch must be an int >= 1, got {self.max_batch!r}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms!r}")
        if not isinstance(self.max_queue_depth, int) or self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be an int >= 1, got {self.max_queue_depth!r}"
            )
        if self.request_timeout_ms <= 0:
            raise ValueError(
                f"request_timeout_ms must be > 0, got {self.request_timeout_ms!r}"
            )
        if self.drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s!r}"
            )
        object.__setattr__(self, "max_wait_ms", float(self.max_wait_ms))
        object.__setattr__(
            self, "request_timeout_ms", float(self.request_timeout_ms)
        )
        object.__setattr__(self, "drain_timeout_s", float(self.drain_timeout_s))

    @property
    def coalescing(self) -> bool:
        """Whether this configuration coalesces at all (``max_batch > 1``)."""
        return self.max_batch > 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (reported by the ``/healthz`` endpoint)."""
        return {
            "host": self.host,
            "port": self.port,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_queue_depth": self.max_queue_depth,
            "request_timeout_ms": self.request_timeout_ms,
            "drain_timeout_s": self.drain_timeout_s,
        }
