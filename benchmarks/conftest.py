"""Shared fixtures and helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section V) at laptop scale: the data sets are the synthetic surrogates from
:mod:`repro.datasets.registry` (same dimensions as the paper, scaled-down
``n``), and the output is printed as a text table plus a JSON file under
``benchmarks/results/``.

Scale knobs (environment variables):

* ``REPRO_BENCH_POINTS`` — surrogate size per data set (default 4000).
* ``REPRO_BENCH_QUERIES`` — number of hyperplane queries (default 20).
* ``REPRO_BENCH_DATASETS`` — comma-separated data-set names to run
  (default: a representative six-data-set subset).
* ``REPRO_BENCH_FULL=1`` — run every non-large-scale data set at the default
  registry sizes (slow).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.datasets import load_dataset, random_hyperplane_queries
from repro.datasets.registry import available_datasets
from repro.eval import exact_ground_truth

RESULTS_DIR = Path(__file__).parent / "results"

DEFAULT_DATASETS = ["Music", "GloVe", "Sift", "Msong", "Cifar-10", "Sun"]


def bench_num_points() -> int:
    return int(os.environ.get("REPRO_BENCH_POINTS", "4000"))


def bench_num_queries() -> int:
    return int(os.environ.get("REPRO_BENCH_QUERIES", "20"))


def bench_dataset_names() -> List[str]:
    explicit = os.environ.get("REPRO_BENCH_DATASETS")
    if explicit:
        return [name.strip() for name in explicit.split(",") if name.strip()]
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return available_datasets(include_large_scale=False)
    return list(DEFAULT_DATASETS)


@dataclass
class Workload:
    """A materialized benchmark workload: points, queries, ground truth."""

    name: str
    points: np.ndarray
    queries: np.ndarray
    ground_truth_indices: Dict[int, np.ndarray]
    ground_truth_distances: Dict[int, np.ndarray]

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def truth(self, k: int):
        """Exact top-k indices/distances, computing and caching on demand."""
        if k not in self.ground_truth_indices:
            indices, distances = exact_ground_truth(self.points, self.queries, k)
            self.ground_truth_indices[k] = indices
            self.ground_truth_distances[k] = distances
        return self.ground_truth_indices[k], self.ground_truth_distances[k]


def build_workload(name: str, *, num_points=None, num_queries=None, k=10) -> Workload:
    """Load one surrogate data set and its query workload."""
    size = num_points if num_points is not None else bench_num_points()
    if os.environ.get("REPRO_BENCH_FULL") == "1" and num_points is None:
        size = None  # registry default size
    dataset = load_dataset(name, num_points=size)
    queries = random_hyperplane_queries(
        dataset.points,
        num_queries if num_queries is not None else bench_num_queries(),
        rng=2023,
    )
    workload = Workload(
        name=name,
        points=dataset.points,
        queries=queries,
        ground_truth_indices={},
        ground_truth_distances={},
    )
    workload.truth(k)
    return workload


def bench_scale_config(**extra) -> Dict:
    """The scale knobs this run measured at, for ``emit_bench_json`` configs."""
    config: Dict = {
        "num_points": bench_num_points(),
        "num_queries": bench_num_queries(),
        "datasets": bench_dataset_names(),
    }
    config.update(extra)
    return config


def peak_rss_mb() -> float:
    """Peak resident-set size of this process so far, in MiB.

    Reads ``ru_maxrss`` (kilobytes on Linux, bytes on macOS) — a
    high-water mark maintained by the kernel, so there is nothing to
    start or sample; call it at any point to learn the worst memory
    footprint reached.  Every ``emit_bench_json`` call stamps it into the
    metrics so BENCH artifacts record what the run actually cost in RAM,
    and the out-of-core benchmark asserts against it.
    """
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = (1 << 20) if sys.platform == "darwin" else 1024
    return float(peak) / divisor


def _jsonable(obj):
    """JSON encoder default for NumPy scalars/arrays in benchmark records."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def emit_bench_json(
    name: str,
    *,
    test: str,
    config: Dict,
    metrics: Dict,
    records: Optional[List[Dict]] = None,
) -> Path:
    """Write one test's machine-readable summary to ``BENCH_<name>.json``.

    Every benchmark module emits one ``benchmarks/results/BENCH_<name>.json``
    file in a uniform shape, so CI and tracking tools can diff headline
    numbers across runs without parsing each benchmark's bespoke table
    JSON.  The file maps ``test`` -> ``{"config", "metrics"[, "records"]}``;
    a module with several tests merges into one file (each call rewrites
    only its own ``test`` key), and re-runs overwrite in place.

    * ``config`` — the scale knobs the numbers were measured at
      (num_points, num_queries, k, ...), so a smoke-scale CI artifact is
      never mistaken for a full-scale one.
    * ``metrics`` — the few headline scalars (throughput, speedup,
      recall) the benchmark exists to report.
    * ``records`` — optionally, the full row list behind the table.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            payload = {}
    except (FileNotFoundError, ValueError):
        payload = {}
    metrics = dict(metrics)
    metrics.setdefault("peak_rss_mb", round(peak_rss_mb(), 2))
    entry: Dict = {"config": dict(config), "metrics": metrics}
    if records is not None:
        entry["records"] = list(records)
    payload[test] = entry
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    )
    return path


@pytest.fixture(scope="session")
def workloads() -> Dict[str, Workload]:
    """Workloads for the configured benchmark data sets (built lazily)."""
    return {name: build_workload(name) for name in bench_dataset_names()}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def measure_batch_throughput(index, queries, k, n_jobs, *, repeats=1, **kwargs):
    """Measure ``batch_search`` throughput (best of ``repeats`` runs).

    Returns ``(queries_per_second, batch_result)`` for the fastest run so
    every benchmark records engine throughput the same way.
    """
    best = None
    for _ in range(max(1, int(repeats))):
        batch = index.batch_search(queries, k=k, n_jobs=n_jobs, **kwargs)
        if best is None or batch.wall_seconds < best.wall_seconds:
            best = batch
    return best.queries_per_second, best


def measure_loop_throughput(index, queries, k, *, repeats=1, **kwargs):
    """Measure the naive per-query loop (the seed's ``batch_search`` shape).

    Returns queries/second for the fastest of ``repeats`` runs of
    ``[index.search(q) for q in queries]`` — the baseline the engine's
    batched path is compared against.
    """
    import time

    best = float("inf")
    for _ in range(max(1, int(repeats))):
        tic = time.perf_counter()
        for query in queries:
            index.search(query, k=k, **kwargs)
        best = min(best, time.perf_counter() - tic)
    if best <= 0.0:
        return 0.0
    return len(queries) / best


#: SearchStats counters the kernel benchmarks pin against per-query search.
STAT_FIELDS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
    "buckets_probed",
)


def assert_block_matches_sequential(batch, sequential):
    """Bit-identical results AND work counters, per query.

    Shared by the kernel benchmarks so a new SearchStats counter only
    needs to be added to ``STAT_FIELDS`` once.
    """
    assert len(batch) == len(sequential)
    for got, expected in zip(batch, sequential):
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.distances, expected.distances)
        for field in STAT_FIELDS:
            assert getattr(got.stats, field) == getattr(expected.stats, field)
