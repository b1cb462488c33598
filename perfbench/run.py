"""Run one benchmark workload against the program and print its metrics.

Usage::

    python3 perfbench/run.py --workload offline|serve-open|cluster-rw \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported and started
from its ``src/`` directory.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  The lines
before it record the environment, the set-up breakdown and every phase's
attempted/failed counts.
"""

from __future__ import annotations

import argparse
import os
import sys

import config

# Pin BLAS/OpenMP threads before numpy loads, here and (through the
# inherited environment) in every process the benchmark starts.
os.environ.update(config.THREAD_PINS)

import asyncio  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402

from common import ROOT, SRC  # noqa: E402

WORKLOADS = ("offline", "serve-open", "cluster-rw")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    from repro.engine.kernels import kernel_backend

    return {
        "cpu_count": os.cpu_count(),
        "thread_pins": config.THREAD_PINS,
        "kernel_backend": kernel_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    ctx = workloads.Context(args.seed, args.seconds, bool(args.trace), run_dir)
    try:
        if args.workload == "offline":
            outcome = workloads.offline(ctx)
        elif args.workload == "serve-open":
            outcome = asyncio.run(workloads.serve_open(ctx))
        else:
            outcome = asyncio.run(workloads.cluster_rw(ctx))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # a layer the workload does not exercise did no work in it
    layers = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
    unknown = sorted(set(outcome.layers) - set(layers))
    if unknown:
        raise RuntimeError(f"workload measured layers BENCHMARK.json does not name: {unknown}")
    layers.update(outcome.layers)
    wanted, values = (
        (spec["per_layer"], layers) if args.trace
        else (spec["end_to_end"], outcome.metrics)
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    attempted = sum(a for a, _ in outcome.phases.values())
    failed = sum(f for _, f in outcome.phases.values())
    print("environment " + json.dumps(dict(environment(), steal_pct=layers["host.steal_pct"])))
    print("phases " + json.dumps({k: {"attempted": a, "succeeded": a - f, "failed": f}
                                  for k, (a, f) in outcome.phases.items()}))
    print("notes " + json.dumps(outcome.notes))
    if args.trace:
        print("traced end-to-end " + json.dumps(outcome.metrics))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
