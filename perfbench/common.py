"""Helpers shared by the benchmark's processes: tracing, statistics, /proc.

Nothing here imports numpy or repro, so the thread pins in
:mod:`config` can be applied before either is loaded.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: The clock every span and latency uses: CLOCK_MONOTONIC is shared by all
#: processes on the host, so server-side and client-side spans line up.
now = time.monotonic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The per-query work counters of ``SearchStats`` the benchmark reports.
COUNTERS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
)


class Tracer:
    """In-memory span recorder, written out once when the process ends.

    A span is ``(id, name, start, end, parent, rid, attrs)``; ``parent`` is
    the span open in the same context when it started and ``rid`` ties
    the spans of one request together across processes.  A disabled
    tracer records nothing and costs one branch per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: List[Dict[str, Any]] = []
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    @contextmanager
    def span(self, name: str, rid: Any = None, **attrs: Any) -> Iterator[Dict[str, Any]]:
        if not self.enabled:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._current.get(),
            "rid": rid,
            "attrs": attrs,
        }
        self.spans.append(record)
        token = self._current.set(record["id"])
        record["start"] = now()
        try:
            yield attrs
        finally:
            record["end"] = now()
            self._current.reset(token)

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name and "end" in s]

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def durations(spans: Sequence[Dict[str, Any]]) -> List[float]:
    return [s["end"] - s["start"] for s in spans]


def query_rid(row: Any) -> str:
    """Request id of one query: a digest of its float64 bytes.

    JSON carries float64 exactly (repr round-trip), so the server computes
    the same id from the query it parsed as the client did from the one
    it sent.
    """
    import numpy as np

    data = np.ascontiguousarray(row, dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


# ----------------------------------------------------------------- statistics


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method); 0 if empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    if data[hi] == data[lo]:  # also keeps inf (a failed request) finite-free
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_quantile(values: Sequence[float], q: float) -> float:
    """Quantile ``q`` only where at least ten samples lie beyond it.

    Raises when the sample is too small, so a workload sized too short
    fails loudly instead of reporting a percentile it cannot support.
    """
    beyond = len(values) * (1.0 - q)
    if beyond < 10 - 1e-9:  # 100 * (1 - 0.9) is 9.999... in floating point
        raise ValueError(
            f"p{q * 100:g} needs 10 samples beyond it; only {len(values)} "
            "samples in total"
        )
    return quantile(values, q)


# ----------------------------------------------------------------------- /proc


def vm_hwm_mb(pid) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def processes() -> List[Tuple[int, str, int, int]]:
    """``(pid, state, ppid, pgrp)`` of every process, from ``/proc/*/stat``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:  # ended while we looked
            continue
        # the command name may hold spaces; fields resume after its ')'
        fields = stat[stat.rindex(")") + 2:].split()
        found.append((int(entry), fields[0], int(fields[1]), int(fields[2])))
    return found


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``."""
    children: Dict[int, List[int]] = {}
    for child, _, ppid, _ in processes():
        children.setdefault(ppid, []).append(child)
    found: List[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def tree_hwm_mb(pid: int) -> float:
    """Summed VmHWM of a process and all its descendants, in MiB."""
    return sum(vm_hwm_mb(p) for p in [pid] + descendants(pid))


def cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of /proc/stat, in clock ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def steal_pct(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor stole between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return 100.0 * delta[7] / total if total > 0 else 0.0


def stolen_pct(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of the CPU time the guest asked for that the hypervisor stole.

    Steal only accrues while a vCPU has work, so it is taken against busy
    time (everything but idle and iowait), not against wall time.
    """
    delta = [b - a for a, b in zip(before, after)]
    busy = sum(delta[:8]) - delta[3] - delta[4]
    return 100.0 * delta[7] / busy if busy > 0 else 0.0


#: A round in which the hypervisor stole more than this share of the CPU
#: time the guest asked for is left out of the round-based metrics.
QUIET_STEAL_PCT = 2.0


def quiet_rounds(stolen: Sequence[float]) -> List[int]:
    """The rounds the host left alone, in order.

    A shared VM loses CPU time to other tenants in bursts (5-25 % steal
    lasting 10-40 s was seen on a shared 2-vCPU host), and a burst slows
    every process of a multi-process workload several times more than its
    share.  The round-based metrics therefore use only the rounds whose
    steal stayed within :data:`QUIET_STEAL_PCT`; if fewer than a quarter
    of the rounds did, the least-stolen quarter.
    """
    order = sorted(range(len(stolen)), key=lambda r: (stolen[r], r))
    least = max(1, math.ceil(len(stolen) / 4))
    quiet = [r for r in order if stolen[r] <= QUIET_STEAL_PCT]
    return sorted(quiet if len(quiet) >= least else order[:least])


def path_bytes(path: Path) -> int:
    """Bytes of a file, or of every file under a directory."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
