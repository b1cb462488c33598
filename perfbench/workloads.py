"""The three workloads: offline, serve-open and cluster-rw.

Each workload draws its inputs from the seed, starts the program in its
own processes, measures a fixed amount of work sized from ``--seconds``,
checks every answer, and returns its end-to-end metrics and, when traced,
its per-layer metrics.  Set-up is repeated several times per run and
reported as the median, next to its parts.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

import config
from common import (
    ROOT,
    Tracer,
    cpu_times,
    descendants,
    durations,
    median,
    now,
    quantile,
    query_rid,
    quiet_rounds,
    steal_pct,
    stolen_pct,
    tail_quantile,
    tree_hwm_mb,
)
from inputs import Checker, make_points, make_queries, split
from loadgen import (
    Connection,
    Sample,
    answer_pair,
    paced,
    open_loop_summary,
    run_jobs,
    span_seconds,
)
from procs import Program, run_child

HOST = "127.0.0.1"
BENCH = ROOT / "perfbench"
FAST = {"exact": False}

#: The tail percentile reported next to every p50 (``tail.p95_ms``), and
#: the fewest samples that leave ten beyond it.
TAIL_Q = 0.95
TAIL_SAMPLES = 200


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    run_dir: Path
    tracer: Tracer = field(init=False)

    def __post_init__(self) -> None:
        self.tracer = Tracer(self.trace)


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: phase -> [attempted, failed]
    phases: Dict[str, List[int]] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def count(self, phase: str, ok: Sequence[bool]) -> None:
        tally = self.phases.setdefault(phase, [0, 0])
        tally[0] += len(ok)
        tally[1] += int(len(ok) - int(np.count_nonzero(ok)))


def ms(seconds: float) -> float:
    return 1e3 * seconds


def nproc() -> int:
    return max(1, os.cpu_count() or 1)


def search_jobs(queries: np.ndarray, options: Optional[dict] = None):
    return [("search", row, options, query_rid(row)) for row in queries]


def setup_parts(out: Outcome, setups: List[Dict[str, float]]) -> None:
    """Set-up parts, reported next to ``setup_s`` on every run."""
    parts = sorted({key for s in setups for key in s if key.endswith("_s")})
    out.notes["setup_parts_s"] = {key: median([s[key] for s in setups]) for key in parts}


def span_median(spans: Sequence[Dict[str, Any]]) -> float:
    return median(durations(spans))


# -------------------------------------------------------------------- offline


def per_round(rate: float, share: float, seconds: float, rounds: int, unit: int = 1) -> int:
    """Queries per round: the phase's share of the run at its sizing rate,
    in whole units (query blocks)."""
    return unit * max(1, round(rate * share * seconds / rounds / unit))


def round_rates(count: int, seconds: Sequence[float], quiet: Sequence[int]) -> float:
    """One phase's throughput: the upper quartile of its quiet rounds' rates.

    Within a run some rounds ran at two thirds of the others' rate with no
    steal at all: three busy threads (generator, event loop, compute
    thread) share two vCPUs, and their placement changes.  Such rounds are
    only ever slower, so the upper quartile is the rate of the undisturbed
    rounds; over ten ``serve-open`` runs it spread 0.12 of the median where
    the median over rounds spread 0.22.
    """
    return quantile([count / seconds[r] for r in quiet], 0.75)


def pooled(per_round: Sequence[Sequence[Any]], rounds: Sequence[int]) -> List[Any]:
    """The samples of the given rounds, as one list."""
    return [v for r in rounds for v in per_round[r]]


def note_rounds(out: Outcome, stolen: Sequence[float], quiet: Sequence[int],
                count: Dict[str, int], seconds: Dict[str, Sequence[float]]) -> None:
    """Each round's steal and throughputs, and the rounds kept."""
    out.notes["rounds"] = dict(
        stolen_pct=[round(s, 2) for s in stolen],
        quiet=list(quiet),
        **{f"{phase}_qps": [round(count[phase] / s, 1) for s in seconds[phase]]
           for phase in ("exact", "fast")},
    )


def offline(ctx: Context) -> Outcome:
    cfg = config.OFFLINE
    out = Outcome()
    block, rounds = cfg["block"], cfg["rounds"]
    n_exact = rounds * per_round(
        cfg["exact_rate"], cfg["exact_share"], ctx.seconds, rounds, block)
    n_fast = rounds * per_round(
        cfg["fast_rate"], cfg["fast_share"], ctx.seconds, rounds, block)
    n_single = rounds * max(math.ceil(TAIL_SAMPLES / rounds), per_round(
        cfg["single_rate"], cfg["single_share"], ctx.seconds, rounds))
    points = make_points(ctx.seed, config.NUM_POINTS)
    sizes = [cfg["warm_queries"] * cfg["setups"], 2 * block, n_exact, n_fast, n_single]
    queries = make_queries(points, ctx.seed, sum(sizes))
    phases = dict(zip(("warm", "settle", "exact", "fast", "single"), split(queries, sizes)))
    np.save(ctx.run_dir / "points.npy", points)
    for name, rows in phases.items():
        np.save(ctx.run_dir / f"{name}.npy", rows)

    cpu0 = cpu_times()
    run_child(
        [str(BENCH / "offline_child.py"), str(ctx.run_dir), str(int(ctx.trace))],
        ctx.run_dir / "offline.log", timeout=170.0,
    )
    out.layers["host.steal_pct"] = steal_pct(cpu0, cpu_times())
    child = json.loads((ctx.run_dir / "child.json").read_text())
    answers = np.load(ctx.run_dir / "answers.npz")

    checked = now()
    checker = Checker(points, config.K)
    for name, rows, fast in (
        ("warm_exact", phases["warm"], False),
        ("warm_fast", phases["warm"], True),
        ("settle_exact", phases["settle"][:block], False),
        ("settle_fast", phases["settle"][block:], True),
        ("exact", phases["exact"], False),
        ("fast", phases["fast"], True),
        ("single", phases["single"], False),
    ):
        pairs = list(zip(answers[f"{name}_ids"], answers[f"{name}_dist"]))
        out.count(name, checker.check(rows, pairs, fast=fast))
    out.notes["check_s"] = now() - checked

    setups = child["setups"]
    setup_parts(out, setups)
    quiet = quiet_rounds(child["round_stolen_pct"])
    note_rounds(out, child["round_stolen_pct"], quiet, child["per_round"], child["round_s"])
    out.notes["rounds"]["p50_ms"] = [round(ms(median(r)), 3) for r in child["single_latencies_s"]]
    per_round_lat = child["single_latencies_s"]
    latencies = pooled(per_round_lat, range(rounds))
    publish = [s["fit_s"] + s["save_s"] + s["load_s"] for s in setups]
    out.metrics.update({
        "setup_s": median([s["setup_s"] for s in setups]),
        "qps": round_rates(child["per_round"]["exact"], child["round_s"]["exact"], quiet),
        "fast_qps": round_rates(child["per_round"]["fast"], child["round_s"]["fast"], quiet),
        "p50_ms": ms(median(pooled(per_round_lat, quiet))),
        "write_p50_ms": ms(median(publish)),
        "peak_rss_mb": child["peak_rss_mb"],
        "index_bytes_ratio": setups[0]["index_bytes"] / points.nbytes,
    })
    out.layers["tail.p95_ms"] = ms(tail_quantile(latencies, TAIL_Q))
    out.notes["block"] = block
    out.notes["queries"] = {"exact": n_exact, "fast": n_fast, "single": n_single}

    if ctx.trace:
        spans = load_spans(ctx.run_dir / "spans.json")
        by_phase = {}
        for span in spans.named("Searcher.batch_search") + spans.named("Searcher.search"):
            by_phase.setdefault(span["attrs"].get("phase"), []).append(span)
        warm = durations(by_phase["warm_exact"])
        warm_fast = durations(by_phase["warm_fast"])
        counters = child["exact_counters"]
        out.layers.update({
            "core.fit_s": span_median(spans.named("build_index.fit")),
            "core.index_bytes": setups[0]["index_bytes"],
            "api.save_s": span_median(spans.named("save_index")),
            "api.load_s": span_median(spans.named("load_index")),
            "engine.warmup_s": median([a + b for a, b in zip(warm, warm_fast)]),
            "engine.exact_ms_per_query": ms(sum(durations(by_phase["exact"])) / n_exact),
            "engine.fast_ms_per_query": ms(sum(durations(by_phase["fast"])) / n_fast),
            "engine.fast_candidates_verified": child["fast_candidates_verified"] / n_fast,
            "engine.verify_yield": config.K * n_exact / counters["candidates_verified"],
            "api.search_ms": ms(span_median(by_phase["single"])),
        })
        for name, total in counters.items():
            out.layers[f"engine.{name}"] = total / n_exact
    return out


# ----------------------------------------------------------------- serve-open


async def wait_healthy(conn: Connection, deadline_s: float = 120.0) -> Dict[str, Any]:
    """Poll ``GET /healthz`` until the program answers it."""
    deadline = now() + deadline_s
    while now() < deadline:
        status, answer = await conn.request(("get", "/healthz", None, None))
        if status == 200 and answer.get("status") == "ok":
            return answer
        await asyncio.sleep(0.005)
    raise RuntimeError("program never answered /healthz")


def build(ctx: Context, kind: str, rep: int) -> Dict[str, Any]:
    """Build one set-up's artifact in a program process (timed inside it)."""
    run_child(
        [str(BENCH / "build_child.py"), kind, str(ctx.run_dir), str(rep),
         str(int(ctx.trace))],
        ctx.run_dir / f"build_{kind}{rep}.log", timeout=170.0,
    )
    return json.loads((ctx.run_dir / f"build{rep}.json").read_text())


def serve_argv(ctx: Context, payload: str, rep: int) -> List[str]:
    if ctx.trace:
        return [str(BENCH / "serve_launcher.py"), payload,
                str(ctx.run_dir / f"server_spans{rep}.json")]
    flags = config.SERVE_FLAGS
    return [
        "-m", "repro", "serve", payload, "--host", HOST, "--port", "0",
        "--max-batch", str(flags["max_batch"]),
        "--max-wait-ms", str(flags["max_wait_ms"]),
        "--queue-depth", str(flags["queue_depth"]),
        "--timeout-ms", str(flags["timeout_ms"]),
        "--k", str(config.K),
    ]


async def deploy(ctx: Context, kind: str, rep: int, warm_rows: np.ndarray):
    """One set-up: build, start the program until ``/healthz`` answers,
    then its first exact and first fast search, which fill the lazily
    built traversal engine and the float32 fast arrays."""
    built = build(ctx, kind, rep)
    argv = (serve_argv(ctx, built["path"], rep) if kind == "serve"
            else ["-m", "repro", "cluster", built["path"], "--router-port", "0"])
    program = Program(argv, ctx.run_dir / f"{kind}{rep}.log")
    conn = Connection(HOST, program.wait_port(), ctx.tracer)
    try:
        health = await wait_healthy(conn)
        start_s = now() - program.started
        t = now()
        warm = []
        for job in (search_jobs(warm_rows[:1])[0], search_jobs(warm_rows[1:2], FAST)[0]):
            warm += await run_jobs([conn], [job])
        warm_s = now() - t
    except BaseException:
        await conn.close()
        program.stop()
        raise
    record = dict(
        built,
        start_s=start_s,
        warmup_s=warm_s,
        setup_s=built["build_s"] + start_s + warm_s,
        # a static deployment takes a write by publishing a new snapshot
        publish_s=built["build_s"] + start_s,
    )
    return program, conn, health, record, warm


def pin_threads(pid: int, cpu: int) -> None:
    """Pin every thread of a process (and so the threads it starts later)."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def pin_cluster(pid: int) -> None:
    """Give each shard process its own vCPU, as a sharded deployment would.

    Shard ``i`` (in pid order) runs on vCPU ``i % nproc`` and the router on
    the last vCPU.  Left to the scheduler, the generator, the router and
    the two shards moved between the two vCPUs, and closed-loop throughput
    swung 1.4x from run to run (interquartile range 0.33 of the median over
    five runs, against 0.06 pinned).  Pinned after the set-up, so set-up
    time is measured as deployed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    shards = []
    for child in descendants(pid):
        with open(f"/proc/{child}/cmdline", "rb") as handle:
            if b"spawn_main" in handle.read():
                shards.append(child)
    pin_threads(pid, cpus[-1])
    for i, shard in enumerate(sorted(shards)):
        pin_threads(shard, cpus[i % len(cpus)])


class Deployment:
    """The measured deployment plus the extra set-ups made after the rounds.

    The extra set-ups run once the measured rounds are over: building and
    starting a second program beside the measured one disturbs the rounds
    that follow it.
    """

    def __init__(self, ctx: Context, kind: str, reps: int, warm_q) -> None:
        self.ctx, self.kind, self.reps, self.warm_q = ctx, kind, reps, warm_q
        self.setups: List[Dict[str, Any]] = []
        self.warm: List[Sample] = []
        self.program = None
        self.conns: List[Connection] = []

    async def start(self, connections: int):
        self.program, conn, health, record, warm = await deploy(
            self.ctx, self.kind, 0, self.warm_q[:2]
        )
        self.setups.append(record)
        self.warm += warm
        if self.kind == "cluster":
            pin_cluster(self.program.pid)
        self.conns = [conn] + [Connection(HOST, conn.client.port, self.ctx.tracer)
                               for _ in range(connections - 1)]
        return health

    async def extra_setups(self) -> None:
        for rep in range(1, self.reps):
            program, conn, _, record, warm = await deploy(
                self.ctx, self.kind, rep, self.warm_q[2 * rep:2 * rep + 2]
            )
            await conn.close()
            program.stop()
            self.setups.append(record)
            self.warm += warm

    async def stop(self) -> None:
        for conn in self.conns:
            await conn.close()
        if self.program is not None:
            self.program.stop()

    def check_warm(self, out: Outcome, check) -> None:
        out.count("warm", check(self.warm_q[0::2], self.warm[0::2], False)
                  + check(self.warm_q[1::2], self.warm[1::2], True))

    def report(self, out: Outcome) -> None:
        setup_parts(out, self.setups)
        out.metrics["setup_s"] = median([s["setup_s"] for s in self.setups])


def rows_of(queries: np.ndarray, per: int, r: int) -> np.ndarray:
    return queries[r * per:(r + 1) * per]


async def closed_round(conns, rows, options, samples, seconds) -> None:
    """One round's closed-loop slice; keeps its samples and its duration."""
    got = await run_jobs(conns, search_jobs(rows, options))
    samples += got
    seconds.append(span_seconds(got))


async def settle_in(conns, exact_rows, fast_rows):
    """Unmeasured traffic between set-up and the first round: the first
    requests after start run slower than the rest (their answers are still
    checked)."""
    return (await run_jobs(conns, search_jobs(exact_rows)),
            await run_jobs(conns, search_jobs(fast_rows, FAST)))


async def serve_open(ctx: Context) -> Outcome:
    cfg = config.SERVE
    out = Outcome()
    rounds, reps = cfg["rounds"], cfg["setups"]
    per_ce = per_round(cfg["exact_requests_per_s"], cfg["closed_share"], ctx.seconds, rounds)
    per_cf = per_round(cfg["fast_requests_per_s"], cfg["closed_share"], ctx.seconds, rounds)
    per_nominal = max(math.ceil(TAIL_SAMPLES / rounds), per_round(
        cfg["nominal_rate"], cfg["nominal_share"], ctx.seconds, rounds))
    points = make_points(ctx.seed, config.NUM_POINTS)
    sizes = [2 * reps, 2 * per_ce, 2 * per_cf] + [
        rounds * n for n in (per_ce, per_cf, per_nominal)]
    queries = make_queries(points, ctx.seed, sum(sizes))
    warm_q, settle_exact_q, settle_fast_q, ce_q, cf_q, nominal_q = split(queries, sizes)
    np.save(ctx.run_dir / "points.npy", points)

    closed = {"exact": [], "fast": []}
    closed_s = {"exact": [], "fast": []}
    nominal: List[List[Sample]] = []
    stolen: List[float] = []
    deployment = Deployment(ctx, "serve", reps, warm_q)
    try:
        await deployment.start(nproc())
        conns = deployment.conns
        cpu0 = cpu_times()
        settle = await settle_in(conns, settle_exact_q, settle_fast_q)
        rtt = []
        if ctx.trace:
            rtt = await run_jobs(conns[:1], [("get", "/healthz", None, None)] * cfg["rtt_probes"])
        for r in range(rounds):
            round_cpu = cpu_times()
            await closed_round(conns, rows_of(ce_q, per_ce, r), None,
                               closed["exact"], closed_s["exact"])
            await closed_round(conns, rows_of(cf_q, per_cf, r), FAST,
                               closed["fast"], closed_s["fast"])
            rows = rows_of(nominal_q, per_nominal, r)
            nominal.append(await run_jobs(
                conns, search_jobs(rows), paced(len(rows), cfg["nominal_rate"])))
            stolen.append(stolen_pct(round_cpu, cpu_times()))
        out.layers["host.steal_pct"] = steal_pct(cpu0, cpu_times())
        _, stats = await conns[0].request(("get", "/stats", None, None))
        peak_rss = tree_hwm_mb(deployment.program.pid)
        await deployment.extra_setups()
    finally:
        await deployment.stop()

    checked = now()
    checker = Checker(points, config.K)

    def check(rows, samples, fast=False):
        return checker.check(rows, [answer_pair(s) for s in samples], fast=fast).tolist()

    deployment.check_warm(out, check)
    out.count("settle", check(settle_exact_q, settle[0]) + check(settle_fast_q, settle[1], True))
    out.count("closed_exact", check(ce_q, closed["exact"]))
    out.count("closed_fast", check(cf_q, closed["fast"], True))
    all_nominal = pooled(nominal, range(rounds))
    out.count("nominal", check(nominal_q, all_nominal))
    if rtt:
        out.count("rtt_probes", [s.status == 200 for s in rtt])
    out.notes["check_s"] = now() - checked

    quiet = quiet_rounds(stolen)
    note_rounds(out, stolen, quiet, {"exact": per_ce, "fast": per_cf}, closed_s)
    out.notes["rounds"]["p50_ms"] = [round(ms(median([x.latency for x in r])), 3) for r in nominal]
    summary = open_loop_summary(cfg["nominal_rate"], all_nominal)
    out.notes["nominal"] = summary
    latencies = [s.latency for s in all_nominal]
    publish = [s["publish_s"] for s in deployment.setups]
    deployment.report(out)
    out.metrics.update({
        "write_p50_ms": ms(median(publish)),
        "qps": round_rates(per_ce, closed_s["exact"], quiet),
        "fast_qps": round_rates(per_cf, closed_s["fast"], quiet),
        "p50_ms": ms(median([s.latency for s in pooled(nominal, quiet)])),
        "peak_rss_mb": peak_rss,
        "index_bytes_ratio": deployment.setups[0]["index_bytes"] / points.nbytes,
    })
    out.layers["tail.p95_ms"] = ms(tail_quantile(latencies, TAIL_Q))
    out.layers["gen.late_p99_ms"] = summary["late_p99_ms"]
    out.layers.update({
        "serve.mean_batch": stats["mean_batch_size"],
        "serve.rejected_429": stats["rejected_429"],
        "serve.timeouts_504": stats["timeouts_504"],
    })
    if ctx.trace:
        serve_layers(ctx, out, deployment.setups, rtt, all_nominal, nominal_q)
    return out


def load_spans(path: Path) -> Tracer:
    tracer = Tracer(True)
    tracer.spans = json.loads(path.read_text())
    return tracer


def build_spans(ctx: Context, reps: int) -> Tracer:
    merged = Tracer(True)
    for rep in range(reps):
        merged.spans += load_spans(ctx.run_dir / f"build_spans{rep}.json").spans
    return merged


def serve_layers(ctx, out, setups, rtt, nominal, nominal_q) -> None:
    """Per-layer split of the served request path, from joined spans.

    The measured server's compute spans carry the ids of the queries they
    answered, so each nominal request is joined to the flush that computed
    it; what is left of its service time after the HTTP round trip and
    that compute is time spent waiting in the serving layers (mostly the
    coalescing window).
    """
    build = build_spans(ctx, len(setups))
    server = load_spans(ctx.run_dir / "server_spans0.json")
    compute = server.named("Searcher.search") + server.named("Searcher.batch_search")
    compute.sort(key=lambda s: s["start"])
    flush_of = {}
    for span in compute:
        for rid in span["rid"] if isinstance(span["rid"], list) else [span["rid"]]:
            flush_of[rid] = span
    rtt_s = median([s.service for s in rtt])
    flushes, waits = [], []
    for sample, row in zip(nominal, nominal_q):
        flush = flush_of.get(query_rid(row))
        if flush is None or sample.status != 200:
            continue
        flushes.append(flush)
        waits.append(sample.service - rtt_s - (flush["end"] - flush["start"]))
    exact = [s for s in compute if s["attrs"].get("exact", True) is not False]
    fast = [s for s in compute if s["attrs"].get("exact", True) is False]

    def queries_in(spans):
        return sum(len(s["rid"]) if isinstance(s["rid"], list) else 1 for s in spans)

    exact_queries = queries_in(exact)
    totals: Dict[str, int] = {}
    for span in exact:
        for name, value in span["attrs"]["stats"].items():
            totals[name] = totals.get(name, 0) + value
    fast_verified = sum(s["attrs"]["stats"]["candidates_verified"] for s in fast)
    out.layers.update({
        "core.fit_s": span_median(build.named("build_index.fit")),
        "core.index_bytes": setups[0]["index_bytes"],
        "api.save_s": span_median(build.named("save_index")),
        "api.load_s": span_median(server.named("load_index")),
        "serve.start_s": median([s["start_s"] for s in setups]),
        "serve.http_rtt_ms": ms(rtt_s),
        "serve.compute_ms": ms(span_median(flushes)),
        "serve.wait_ms": ms(median(waits)),
        "api.search_ms": ms(span_median(
            [s for s in flushes if s["name"] == "Searcher.search"]
        )),
        # the measured server's first exact and first fast call: warm-up
        "engine.warmup_s": sum(durations([exact[0], fast[0]])),
        "engine.exact_ms_per_query": ms(
            sum(durations(exact[1:])) / (exact_queries - 1)
        ),
        "engine.fast_ms_per_query": ms(
            sum(durations(fast[1:])) / (queries_in(fast) - 1)
        ),
        "engine.fast_candidates_verified": fast_verified / queries_in(fast),
        "engine.verify_yield": config.K * exact_queries / totals["candidates_verified"],
    })
    for name, total in totals.items():
        out.layers[f"engine.{name}"] = total / exact_queries


# ----------------------------------------------------------------- cluster-rw


class UpdatePlan:
    """Every ``/update`` of a run, drawn up front from the seed.

    Update ``j`` inserts the next rows of the extra points, whose global ids
    the router assigns in order after the initial ``n``, and deletes ids
    that are live after update ``j - 1``.  ``live[v]`` is the live-id mask
    of snapshot version ``v`` (version ``j + 1`` follows update ``j``).
    Round-robin placement puts id ``g`` on shard ``g % shards``, for the
    initial points and the routed inserts alike; every update deletes as
    many ids from each shard, so the shards cross the rebuild threshold
    at the same update on every seed.
    """

    def __init__(self, extra: np.ndarray, n: int, count: int, seed: int) -> None:
        cfg = config.CLUSTER
        rng = np.random.default_rng([seed, 11])
        per = cfg["inserts_per_write"]
        live = np.zeros(n + count * per, dtype=bool)
        live[:n] = True
        self.live = [live.copy()]
        self.jobs = []
        self.expected = []
        shards = cfg["num_shards"]
        owner = np.arange(live.size) % shards
        for j in range(count):
            ids = list(range(n + j * per, n + (j + 1) * per))
            deletes = sorted(int(i) for shard in range(shards) for i in rng.choice(
                np.flatnonzero(live & (owner == shard)),
                cfg["deletes_per_write"] // shards, replace=False,
            ))
            live[deletes] = False
            live[ids] = True
            self.live.append(live.copy())
            self.jobs.append(("post", "/update", {
                "inserts": extra[j * per:(j + 1) * per].tolist(),
                "deletes": deletes,
            }, None))
            self.expected.append({"version": j + 1, "insert_ids": ids,
                                  "deleted": len(deletes)})


async def read_write(conns, reads, writes, cfg, state):
    """One slice of the main cluster-rw phase: routed reads beside one writer.

    One connection sends the reads, the other the ``/update`` batches in
    order, so at most one update is ever in flight.  A read may observe
    any snapshot from the last version acknowledged before it was sent to
    the last version issued before it was answered; that window becomes
    its ``meta``.
    """
    def read_sent(i):
        return state["acked"]

    def read_done(i, status, answer, acked):
        return (acked, state["issued"])

    def write_sent(j):
        state["issued"] += 1

    def write_done(j, status, answer, sent):
        if status == 200:
            state["acked"] = max(state["acked"], int(answer["version"]))

    start = now() + 0.05
    return await asyncio.gather(
        run_jobs(conns[:1], reads, paced(len(reads), cfg["read_rate"]),
                 start=start, on_send=read_sent, on_recv=read_done),
        run_jobs(conns[1:2], writes, paced(len(writes), cfg["write_rate"]),
                 start=start, on_send=write_sent, on_recv=write_done),
    )


async def cluster_rw(ctx: Context) -> Outcome:
    cfg = config.CLUSTER
    out = Outcome()
    rounds, reps = cfg["rounds"], cfg["setups"]
    n = config.NUM_POINTS
    per_ce = per_round(cfg["exact_requests_per_s"], cfg["closed_share"], ctx.seconds, rounds)
    per_cf = per_round(cfg["fast_requests_per_s"], cfg["closed_share"], ctx.seconds, rounds)
    per_read = max(math.ceil(TAIL_SAMPLES / rounds), per_round(
        cfg["read_rate"], cfg["main_share"], ctx.seconds, rounds))
    per_write = max(math.ceil(cfg["min_writes"] / rounds),
                    round(per_read * cfg["write_rate"] / cfg["read_rate"]))
    n_writes = rounds * per_write
    all_points = make_points(ctx.seed, n + n_writes * cfg["inserts_per_write"])
    points = all_points[:n]
    sizes = [2 * reps, 2 * per_ce, 2 * per_cf, cfg["probe_queries"]] + [
        rounds * k for k in (per_ce, per_cf, per_read)]
    queries = make_queries(points, ctx.seed, sum(sizes))
    (warm_q, settle_exact_q, settle_fast_q, probe_q, ce_q, cf_q,
     read_q) = split(queries, sizes)
    plan = UpdatePlan(all_points[n:], n, n_writes, ctx.seed)
    np.save(ctx.run_dir / "points.npy", points)

    state = {"acked": 0, "issued": 0}
    closed = {"exact": [], "fast": []}
    closed_s = {"exact": [], "fast": []}
    versions: List[int] = []  # snapshot each round's read-only phases saw
    reads: List[List[Sample]] = []
    writes: List[List[Sample]] = []
    stolen: List[float] = []
    deployment = Deployment(ctx, "cluster", reps, warm_q)
    try:
        health = await deployment.start(max(2, nproc()))
        conns = deployment.conns
        cpu0 = cpu_times()
        settle = await settle_in(conns, settle_exact_q, settle_fast_q)
        rtt, probes = [], {}
        if ctx.trace:
            rtt = await run_jobs(conns[:1], [("get", "/healthz", None, None)] * len(probe_q))
            probes = await cluster_probes(ctx, conns[0], health, probe_q)
        for r in range(rounds):
            versions.append(state["acked"])
            round_cpu = cpu_times()
            await closed_round(conns, rows_of(ce_q, per_ce, r), None,
                               closed["exact"], closed_s["exact"])
            await closed_round(conns, rows_of(cf_q, per_cf, r), FAST,
                               closed["fast"], closed_s["fast"])
            got_reads, got_writes = await read_write(
                conns, search_jobs(rows_of(read_q, per_read, r)),
                plan.jobs[r * per_write:(r + 1) * per_write], cfg, state,
            )
            reads.append(got_reads)
            writes.append(got_writes)
            stolen.append(stolen_pct(round_cpu, cpu_times()))
        out.layers["host.steal_pct"] = steal_pct(cpu0, cpu_times())
        _, stats = await conns[0].request(("get", "/stats", None, None))
        peak_rss = tree_hwm_mb(deployment.program.pid)
        await deployment.extra_setups()
    finally:
        await deployment.stop()

    all_reads = pooled(reads, range(rounds))
    all_writes = pooled(writes, range(rounds))
    checked = now()
    checker = Checker(all_points, config.K)

    def check(rows, samples, fast=False, version=0):
        return [checker.check_live(q, answer_pair(s), [plan.live[version]], fast=fast)
                for q, s in zip(rows, samples)]

    def check_rounds(rows, samples, per, fast=False):
        return [ok for r, v in enumerate(versions) for ok in check(
            rows_of(rows, per, r), samples[r * per:(r + 1) * per], fast, v)]

    deployment.check_warm(out, check)
    out.count("settle", check(settle_exact_q, settle[0]) + check(settle_fast_q, settle[1], True))
    out.count("closed_exact", check_rounds(ce_q, closed["exact"], per_ce))
    out.count("closed_fast", check_rounds(cf_q, closed["fast"], per_cf, True))
    out.count("reads", [
        checker.check_live(q, answer_pair(s), plan.live[s.meta[0]:s.meta[1] + 1])
        for q, s in zip(read_q, all_reads)
    ])
    out.count("writes", [
        s.status == 200 and {k: s.answer[k] for k in expected} == expected
        for s, expected in zip(all_writes, plan.expected)
    ])
    if ctx.trace:
        out.count("rtt_probes", [s.status == 200 for s in rtt])
        out.count("probes", check(probe_q, probes["routed"]))
        out.count("shard_probes", probes["shard_ok"])
    out.notes["check_s"] = now() - checked

    quiet = quiet_rounds(stolen)
    note_rounds(out, stolen, quiet, {"exact": per_ce, "fast": per_cf}, closed_s)
    out.notes["rounds"]["p50_ms"] = [round(ms(median([x.latency for x in r])), 3) for r in reads]
    out.notes["rounds"]["write_p50_ms"] = [round(ms(median([x.latency for x in r])), 3) for r in writes]
    out.notes["reads"] = open_loop_summary(cfg["read_rate"], all_reads)
    out.notes["writes"] = open_loop_summary(cfg["write_rate"], all_writes)
    read_lat = [s.latency for s in all_reads]
    write_lat = [s.latency for s in all_writes]
    deployment.report(out)
    out.metrics.update({
        "qps": round_rates(per_ce, closed_s["exact"], quiet),
        "fast_qps": round_rates(per_cf, closed_s["fast"], quiet),
        "p50_ms": ms(median([s.latency for s in pooled(reads, quiet)])),
        # /update is this workload's write path
        "write_p50_ms": ms(median([s.latency for s in pooled(writes, quiet)])),
        "peak_rss_mb": peak_rss,
        "index_bytes_ratio": deployment.setups[0]["index_bytes"] / points.nbytes,
    })
    out.layers["tail.p95_ms"] = ms(tail_quantile(read_lat, TAIL_Q))
    out.layers["tail.write_p90_ms"] = ms(tail_quantile(write_lat, 0.9))
    out.layers["gen.late_p99_ms"] = max(
        out.notes["reads"]["late_p99_ms"], out.notes["writes"]["late_p99_ms"])
    out.layers.update({
        "cluster.stalled_reads": sum(1 for v in read_lat if v > cfg["stall_ms"] / 1e3),
        "serve.mean_batch": stats["mean_batch_size"],
        "serve.rejected_429": stats["rejected_429"],
        "serve.timeouts_504": stats["timeouts_504"],
    })
    if ctx.trace:
        build = build_spans(ctx, reps)
        loads = build.named("load_index")
        out.layers.update({
            # one build holds one fit and one save per shard
            "core.fit_s": sum(durations(build.named("build_index.fit"))) / reps,
            "api.save_s": sum(durations(build.named("save_index"))) / reps,
            "api.load_s": sum(durations(loads)) / len(loads),
            "core.index_bytes": deployment.setups[0]["index_bytes"],
            "cluster.start_s": median([s["start_s"] for s in deployment.setups]),
            "serve.http_rtt_ms": ms(median([s.service for s in rtt])),
            "cluster.shard_search_ms": probes["shard_ms"],
            "cluster.router_ms": probes["routed_ms"] - probes["shard_ms"],
        })
    return out


async def cluster_probes(ctx, conn, health, rows) -> Dict[str, Any]:
    """Quiet, sequential probes: routed reads, then the one-row
    ``/search_batch`` the router sends, made directly to each shard."""
    routed = await run_jobs([conn], search_jobs(rows))
    shard_p50, shard_ok = [], []
    for shard in health["shards"]:
        host, port = shard["address"].rsplit(":", 1)
        direct = Connection(host, int(port), ctx.tracer)
        try:
            jobs = [("post", "/search_batch",
                     {"queries": [row.tolist()], "k": config.K, "options": {}},
                     query_rid(row)) for row in rows]
            samples = await run_jobs([direct], jobs)
        finally:
            await direct.close()
        shard_p50.append(median([s.service for s in samples]))
        shard_ok += [s.status == 200 and len(s.answer["results"][0]["indices"]) == config.K
                     for s in samples]
    return {
        "routed": routed,
        "routed_ms": ms(median([s.service for s in routed])),
        "shard_ms": ms(max(shard_p50)),
        "shard_ok": shard_ok,
    }
