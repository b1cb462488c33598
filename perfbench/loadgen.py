"""The load generator: one process, one asyncio thread, few connections.

Requests run over keep-alive :class:`repro.serve.ServeClient`
connections.  In an open loop request ``i`` is due at ``i / rate`` after the
start, whatever happened before it, and its latency runs from that due time, so
a stall is charged to every request it delays (no coordinated omission);
``late`` is how far behind its schedule the generator sent it.  In a
closed loop (``rate=None``) each connection sends its next request as
soon as the previous one is answered.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import Tracer, now

#: A request that takes longer than this is abandoned and counted failed.
REQUEST_TIMEOUT_S = 30.0

#: (verb, target, body, rid): verb "search" sends query ``target`` with the
#: options ``body``; "post" sends ``body`` to path ``target``; "get" reads
#: path ``target``.
Job = Tuple[str, Any, Any, Optional[str]]


@dataclass
class Sample:
    due: float
    send: float
    recv: float
    status: int  # 200, the HTTP error status, or 0 for transport failures
    answer: Any
    meta: Any = None

    @property
    def latency(self) -> float:
        return self.recv - self.due if self.status == 200 else float("inf")

    @property
    def late(self) -> float:
        return self.send - self.due

    @property
    def service(self) -> float:
        return self.recv - self.send


class Connection:
    """One keep-alive connection; reconnects after a transport failure."""

    def __init__(self, host: str, port: int, tracer: Tracer) -> None:
        from repro.serve import ServeClient

        self.client = ServeClient(host, port)
        self.tracer = tracer
        self.connected = False

    async def request(self, job: Job) -> Tuple[int, Any]:
        from repro.serve import ServeError

        verb, target, body, rid = job
        if not self.connected:
            await self.client.connect()
            self.connected = True
        with self.tracer.span(f"ServeClient.{verb}", rid=rid):
            try:
                if verb == "search":
                    call = self.client.search(target, **(body or {}))
                elif verb == "post":
                    call = self.client.post(target, body)
                else:
                    call = self.client.get(target)
                return 200, await asyncio.wait_for(call, REQUEST_TIMEOUT_S)
            except ServeError as exc:
                return exc.status, None
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError, OSError):
                await self.close()
                return 0, None

    async def close(self) -> None:
        if self.connected:
            self.connected = False
            await self.client.close()


def paced(count: int, rate: float) -> List[float]:
    """Due offsets of ``count`` requests offered at a fixed ``rate``."""
    return [i / rate for i in range(count)]


async def run_jobs(
    connections: Sequence[Connection],
    jobs: Sequence[Job],
    dues: Optional[Sequence[float]] = None,
    *,
    start: Optional[float] = None,
    on_send: Optional[Callable[[int], Any]] = None,
    on_recv: Optional[Callable[[int, int, Any, Any], Any]] = None,
) -> List[Sample]:
    """Send ``jobs`` in order over ``connections``; one sample per job.

    Job ``i`` is due ``dues[i]`` seconds after ``start`` (open loop), or
    as soon as a connection is free when ``dues`` is None (closed loop).
    ``on_send(i)`` runs just before job ``i`` is sent and its return value
    is handed to ``on_recv(i, status, answer, sent)`` when the answer
    arrives; ``on_recv``'s return value becomes the sample's ``meta``.
    """
    samples: List[Optional[Sample]] = [None] * len(jobs)
    t0 = now() + 0.02 if start is None else start
    order = iter(range(len(jobs)))

    async def worker(conn: Connection) -> None:
        for i in order:
            due = None
            if dues is not None:
                due = t0 + dues[i]
                delay = due - now()
                if delay > 0:
                    await asyncio.sleep(delay)
            sent = on_send(i) if on_send is not None else None
            send = now()
            status, answer = await conn.request(jobs[i])
            recv = now()
            meta = on_recv(i, status, answer, sent) if on_recv is not None else None
            samples[i] = Sample(
                send if due is None else due, send, recv, status, answer, meta
            )

    await asyncio.gather(*(worker(conn) for conn in connections))
    return [s for s in samples if s is not None]


def span_seconds(samples: Sequence[Sample]) -> float:
    """Wall time from the first send to the last answer."""
    return max(s.recv for s in samples) - min(s.send for s in samples)


def answer_pair(sample: Sample) -> Optional[Tuple[List[int], List[float]]]:
    """The (ids, distances) of a search answer, or None if it failed."""
    if sample.status != 200 or not isinstance(sample.answer, dict):
        return None
    return sample.answer.get("indices"), sample.answer.get("distances")


def open_loop_summary(rate: float, samples: Sequence[Sample]) -> Dict[str, float]:
    """Count, failures, p50/p99 latency and generator lateness of one
    open-loop phase offered at ``rate``."""
    from common import quantile

    latencies = [s.latency for s in samples]
    return {
        "rate": rate,
        "count": len(samples),
        "failed": sum(1 for s in samples if s.status != 200),
        "p50_ms": 1e3 * quantile(latencies, 0.5),
        "p99_ms": 1e3 * quantile(latencies, 0.99),
        "late_p99_ms": 1e3 * quantile([s.late for s in samples], 0.99),
    }
