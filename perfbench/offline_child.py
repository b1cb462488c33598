"""The ``offline`` program process: build once, answer a query set.

Usage: ``python3 perfbench/offline_child.py RUN_DIR TRACE``.  Reads only
the generated inputs from ``RUN_DIR`` (points and phase query blocks, as
``.npy``), so its timings and peak RSS exclude input generation and the
ground truth.  Writes the answers (``answers.npz``), its timings
(``child.json``) and, when ``TRACE`` is 1, its spans (``spans.json``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import config
from common import COUNTERS, Tracer, cpu_times, now, path_bytes, stolen_pct, vm_hwm_mb

def stacked(batches):
    rows = [row for batch in batches for row in batch]
    return (
        np.array([r.indices for r in rows], dtype=np.int64),
        np.array([r.distances for r in rows], dtype=np.float64),
    )


def main(run_dir: Path, trace: bool) -> None:
    from repro.api import SearchOptions, Searcher, build_index, load_index, save_index

    tracer = Tracer(trace)
    points = np.load(run_dir / "points.npy")
    warm = np.load(run_dir / "warm.npy")
    exact_q = np.load(run_dir / "exact.npy")
    fast_q = np.load(run_dir / "fast.npy")
    single_q = np.load(run_dir / "single.npy")
    settle_q = np.load(run_dir / "settle.npy")
    cfg = config.OFFLINE
    block, rounds, reps = cfg["block"], cfg["rounds"], cfg["setups"]
    per_warm = warm.shape[0] // reps

    def setup(rep):
        """Build, persist, reload and warm one index; time every part."""
        path = run_dir / f"offline{rep}.idx"
        rows = warm[rep * per_warm:(rep + 1) * per_warm]
        t0 = now()
        with tracer.span("build_index.fit"):
            index = build_index(
                "bc_tree", leaf_size=config.LEAF_SIZE, random_state=config.TREE_SEED
            ).fit(points)
        t1 = now()
        with tracer.span("save_index"):
            save_index(index, path)
        t2 = now()
        with tracer.span("load_index"):
            index = load_index(path)
        t3 = now()
        searcher = Searcher(index, SearchOptions(k=config.K))
        with tracer.span("Searcher.batch_search", phase="warm_exact"):
            warm_exact = searcher.batch_search(rows)
        with tracer.span("Searcher.batch_search", phase="warm_fast"):
            warm_fast = searcher.batch_search(rows, exact=False)
        t4 = now()
        record = {
            "fit_s": t1 - t0,
            "save_s": t2 - t1,
            "load_s": t3 - t2,
            "warmup_s": t4 - t3,
            "setup_s": t4 - t0,
            "index_bytes": path_bytes(path),
        }
        return searcher, record, warm_exact, warm_fast

    searcher, first, warm_exact, warm_fast = setup(0)
    setups = [first]
    warm_batches = {"warm_exact": [warm_exact], "warm_fast": [warm_fast]}
    batches = {"exact": [], "fast": [], "single": []}
    timings = {"exact": [], "fast": [], "single": []}
    latencies = []
    stolen = []
    per_exact = exact_q.shape[0] // rounds
    per_fast = fast_q.shape[0] // rounds
    per_single = single_q.shape[0] // rounds
    # Unmeasured: the first calls after set-up run slower than the rest.
    settle = [searcher.batch_search(settle_q[:block]),
              searcher.batch_search(settle_q[block:], exact=False)]
    for r in range(rounds):
        cpu0 = cpu_times()
        t0 = now()
        for start in range(r * per_exact, (r + 1) * per_exact, block):
            with tracer.span("Searcher.batch_search", phase="exact"):
                batches["exact"].append(searcher.batch_search(exact_q[start:start + block]))
        t1 = now()
        for start in range(r * per_fast, (r + 1) * per_fast, block):
            with tracer.span("Searcher.batch_search", phase="fast"):
                batches["fast"].append(
                    searcher.batch_search(fast_q[start:start + block], exact=False)
                )
        t2 = now()
        single = []
        latencies.append([])
        for row in single_q[r * per_single:(r + 1) * per_single]:
            t = now()
            with tracer.span("Searcher.search", phase="single"):
                single.append(searcher.search(row))
            latencies[-1].append(now() - t)
        batches["single"].append(single)
        t3 = now()
        stolen.append(stolen_pct(cpu0, cpu_times()))
        timings["exact"].append(t1 - t0)
        timings["fast"].append(t2 - t1)
        timings["single"].append(t3 - t2)
    searcher.close()
    # The other set-ups come after the rounds: building an index beside
    # the measured one disturbs the rounds that follow it.
    for rep in range(1, reps):
        extra, record, warm_exact, warm_fast = setup(rep)
        extra.close()
        setups.append(record)
        warm_batches["warm_exact"].append(warm_exact)
        warm_batches["warm_fast"].append(warm_fast)

    totals = {name: 0 for name in COUNTERS}
    for batch in batches["exact"]:
        for name in COUNTERS:
            totals[name] += int(getattr(batch.stats, name))
    fast_verified = sum(int(b.stats.candidates_verified) for b in batches["fast"])

    arrays = {}
    warm_batches["settle_exact"] = [settle[0]]
    warm_batches["settle_fast"] = [settle[1]]
    for name, parts in list(warm_batches.items()) + list(batches.items()):
        arrays[f"{name}_ids"], arrays[f"{name}_dist"] = stacked(parts)
    np.savez(run_dir / "answers.npz", **arrays)
    (run_dir / "child.json").write_text(json.dumps({
        "setups": setups,
        "round_s": timings,
        "per_round": {"exact": per_exact, "fast": per_fast, "single": per_single},
        "single_latencies_s": latencies,
        "round_stolen_pct": stolen,
        "exact_counters": totals,
        "fast_candidates_verified": fast_verified,
        "peak_rss_mb": vm_hwm_mb("self"),
    }))
    if trace:
        tracer.dump(run_dir / "spans.json")


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2] == "1")
