"""Extension — serving throughput: query coalescing on vs off.

The serving front end (:mod:`repro.serve`) exists for one reason: live
traffic arrives one query per request, and the engine is far faster on
*blocks* than on the same queries one at a time.  This benchmark measures
that gap end to end — real sockets, real HTTP framing, real coalescing —
with an **open-loop** load: request arrival times are scheduled up front
at a fixed rate (several times the server's per-query capacity, so a
queue actually forms) and latency is measured from each request's
*scheduled* arrival, which charges queueing delay honestly instead of
letting a slow server throttle its own load (coordinated omission).

Two server configurations answer the identical request schedule over the
same warm :class:`~repro.api.Searcher` session:

* **coalescing off** (``max_batch=1``) — every request executes as its
  own single-query batch: the per-query serving baseline.
* **coalescing on** (``max_batch=128``) — concurrent requests flush as
  blocks through the session's ``batch_search`` (in slices of at most 64
  rows).

Two legs run that comparison: exact search
(``test_serving_coalescing_speedup``) and fast mode, ``exact=False``
(``test_serving_fast_mode_coalescing``), each at the same overdrive of
its own per-query capacity.

The served index is a KD-tree over a Gaussian workload: its per-node
traversal work is scalar, so per-query dispatch is Python-bound and the
per-request work a coalesced block saves (dispatch, validation, the
kernel's set-up) is at its clearest.  (The measurement is of the
*serving* layer; engine-level batch-vs-loop throughput per family is
recorded by ``bench_tree_block_kernel.py``.)

Asserted, in both legs: every answer (both modes) is **bit-identical** to
direct ``searcher.search`` with the same query and options; both modes
report nonzero QPS; and coalescing forms multi-query flushes.  The exact
leg also asserts that at the acceptance scale (>= 4096 requests)
coalescing delivers at least 2x the QPS of the per-query baseline; the
fast leg has no floor.

Scale knobs: ``REPRO_SERVE_REQUESTS`` (default 4096),
``REPRO_SERVE_POINTS`` (default 32768), ``REPRO_SERVE_CONNECTIONS``
(default 128), ``REPRO_SERVE_OVERDRIVE`` (arrival rate as a multiple of
measured per-query capacity, default 8).
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro.api import SearchOptions, Searcher, build_index
from repro.eval.reporting import print_and_save
from repro.serve import BackgroundServer, ServeClient, ServeConfig, ServeError

from conftest import bench_scale_config, emit_bench_json

K = 10
DIM = 32
LEAF_SIZE = 20
NUM_QUERIES = 256
MAX_BATCH = 128
#: QPS factor coalescing must deliver over the per-query baseline at the
#: acceptance scale (the serving PR's headline criterion).
MIN_SPEEDUP = 2.0
#: Request count at which the speedup assertion engages; smoke-scale CI
#: runs below it still assert parity and nonzero QPS.
SPEEDUP_GATE_REQUESTS = 4096


def _num_requests() -> int:
    return int(os.environ.get("REPRO_SERVE_REQUESTS", "4096"))


def _num_points() -> int:
    return int(os.environ.get("REPRO_SERVE_POINTS", "32768"))


def _num_connections() -> int:
    return int(os.environ.get("REPRO_SERVE_CONNECTIONS", "128"))


def _overdrive() -> float:
    return float(os.environ.get("REPRO_SERVE_OVERDRIVE", "8"))


def _measure_direct_qps(searcher, queries, options) -> float:
    """Per-query capacity of the session itself (no HTTP, no coalescing)."""
    tic = time.perf_counter()
    for query in queries[:64]:
        searcher.search(query, k=K, **options)
    elapsed = time.perf_counter() - tic
    return min(64, len(queries)) / elapsed if elapsed > 0 else float("inf")


def _drive_open_loop(port, queries, query_ids, rate_qps, connections, options):
    """Fire one request per ``query_ids`` entry on a fixed arrival schedule.

    Returns ``(answers, latencies_s, wall_s, errors)`` where ``answers[i]``
    is the decoded response for request ``i`` (None on error) and
    ``latencies_s[i]`` is completion minus *scheduled* arrival.
    """
    total = len(query_ids)

    async def main():
        loop = asyncio.get_running_loop()
        answers = [None] * total
        latencies = [None] * total
        errors = []
        start = loop.time() + 0.05  # let every worker connect first
        arrivals = [start + i / rate_qps for i in range(total)]
        done_at = [None] * total
        shared = iter(range(total))

        async def worker():
            async with ServeClient("127.0.0.1", port) as client:
                while True:
                    try:
                        i = next(shared)
                    except StopIteration:
                        return
                    delay = arrivals[i] - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    try:
                        answers[i] = await client.search(
                            queries[query_ids[i]], k=K, **options
                        )
                    except ServeError as exc:
                        errors.append((i, exc.status))
                    done_at[i] = loop.time()
                    latencies[i] = done_at[i] - arrivals[i]

        await asyncio.gather(*[worker() for _ in range(connections)])
        finished = [moment for moment in done_at if moment is not None]
        wall = (max(finished) - start) if finished else 0.0
        return answers, latencies, wall, errors

    return asyncio.run(main())


def _serve_round(
    searcher, config, queries, query_ids, rate_qps, connections, options
):
    with BackgroundServer(searcher, config) as server:
        answers, latencies, wall, errors = _drive_open_loop(
            server.port, queries, query_ids, rate_qps, connections, options
        )
        stats = server.stats
    answered = [a for a in answers if a is not None]
    qps = len(answered) / wall if wall > 0 else 0.0
    millis = sorted(lat * 1000.0 for lat in latencies if lat is not None)
    return {
        "answers": answers,
        "errors": errors,
        "qps": qps,
        "p50_ms": float(np.percentile(millis, 50)) if millis else 0.0,
        "p99_ms": float(np.percentile(millis, 99)) if millis else 0.0,
        "mean_batch": stats["mean_batch_size"],
        "largest_batch": stats["largest_batch"],
    }


def _assert_parity(answers, query_ids, direct):
    """Every served answer must be bit-identical to direct ``search``."""
    for i, answer in enumerate(answers):
        if answer is None:
            continue
        expected = direct[query_ids[i]]
        assert answer["indices"] == [int(x) for x in expected.indices]
        assert answer["distances"] == [float(x) for x in expected.distances]


def _coalescing_rounds(options):
    """Serve one open-loop schedule per-query, then coalesced.

    Both rounds answer the identical schedule over the same warm session,
    at ``_overdrive()`` times the session's per-query capacity with
    ``options``.  Asserts parity with direct ``searcher.search`` (same
    options), no errors, nonzero QPS and at least one multi-query flush;
    returns ``(per_query, coalesced)`` round stats.
    """
    total = _num_requests()
    connections = _num_connections()
    rng = np.random.default_rng(2023)
    points = rng.normal(size=(_num_points(), DIM))
    index = build_index("kd_tree", leaf_size=LEAF_SIZE).fit(points)
    queries = rng.normal(size=(NUM_QUERIES, DIM + 1))
    query_ids = rng.integers(0, NUM_QUERIES, size=total).tolist()

    shared = dict(
        max_queue_depth=max(2 * total, 1024),   # the backlog IS the experiment
        request_timeout_ms=600_000.0,           # ... so nothing 504s out of it
    )
    with Searcher(index, SearchOptions(k=K)) as searcher:
        direct = [searcher.search(query, k=K, **options) for query in queries]
        rate = _overdrive() * _measure_direct_qps(searcher, queries, options)
        per_query, coalesced = [
            _serve_round(
                searcher, ServeConfig(max_batch=max_batch, **shared),
                queries, query_ids, rate, connections, options,
            )
            for max_batch in (1, MAX_BATCH)
        ]

    for round_stats in (per_query, coalesced):
        _assert_parity(round_stats["answers"], query_ids, direct)
        assert not round_stats["errors"]
        assert round_stats["qps"] > 0
    assert coalesced["largest_batch"] > 1, (
        "coalescing never formed a multi-query flush; the load generator "
        "is not producing concurrent requests"
    )
    return per_query, coalesced


def _record(test, leg, per_query, coalesced, json_path):
    """Print and save one leg's table and its ``BENCH_serving.json`` entry."""
    total = _num_requests()
    connections = _num_connections()
    speedup = coalesced["qps"] / per_query["qps"]
    records = [
        {
            "mode": mode,
            "qps": round(round_stats["qps"], 1),
            "p50_ms": round(round_stats["p50_ms"], 3),
            "p99_ms": round(round_stats["p99_ms"], 3),
            "mean_batch": round(round_stats["mean_batch"], 2),
            "largest_batch": round_stats["largest_batch"],
        }
        for mode, round_stats in (
            ("per-query", per_query), ("coalesced", coalesced),
        )
    ]
    print_and_save(
        records,
        ["mode", "qps", "p50_ms", "p99_ms", "mean_batch", "largest_batch"],
        title=(
            f"Serving throughput ({leg}), open-loop x{_overdrive():g} "
            f"overdrive ({total} requests, {connections} connections): "
            f"coalescing speedup {speedup:.2f}x"
        ),
        json_path=json_path,
    )
    emit_bench_json(
        "serving",
        test=test,
        config=bench_scale_config(
            index="kd_tree",
            serve_points=_num_points(),
            dim=DIM,
            leaf_size=LEAF_SIZE,
            k=K,
            requests=total,
            connections=connections,
            overdrive=_overdrive(),
            max_batch=MAX_BATCH,
        ),
        metrics={
            "qps_coalesced": round(coalesced["qps"], 1),
            "qps_per_query": round(per_query["qps"], 1),
            "speedup": round(speedup, 2),
            "p50_ms_coalesced": round(coalesced["p50_ms"], 3),
            "p99_ms_coalesced": round(coalesced["p99_ms"], 3),
            "p50_ms_per_query": round(per_query["p50_ms"], 3),
            "p99_ms_per_query": round(per_query["p99_ms"], 3),
            "mean_batch_coalesced": round(coalesced["mean_batch"], 2),
        },
        records=records,
    )


def test_serving_coalescing_speedup(results_dir):
    """Open-loop serving QPS and latency, coalescing on vs off."""
    per_query, coalesced = _coalescing_rounds({})
    # Recorded before the floor is checked, so a failing run keeps its numbers.
    _record(
        "test_serving_coalescing_speedup", "exact", per_query, coalesced,
        results_dir / "serving.json",
    )
    total = _num_requests()
    speedup = coalesced["qps"] / per_query["qps"]
    if total >= SPEEDUP_GATE_REQUESTS:
        assert speedup >= MIN_SPEEDUP, (
            f"coalescing delivered only {speedup:.2f}x QPS over per-query "
            f"serving (needed {MIN_SPEEDUP}x) at {total} requests"
        )


def test_serving_fast_mode_coalescing(results_dir):
    """The ``exact=False`` leg: the same comparison, recorded, no floor."""
    per_query, coalesced = _coalescing_rounds({"exact": False})
    _record(
        "test_serving_fast_mode_coalescing", "exact=False", per_query,
        coalesced, results_dir / "serving_fast.json",
    )
