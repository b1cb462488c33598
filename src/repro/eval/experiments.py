"""Self-contained drivers for every experiment in the paper's Section V.

The ``benchmarks/`` scripts wrap these same measurements in pytest-benchmark
fixtures; this module exposes them as plain functions so they can be run
from the command line (``python -m repro run fig5 --datasets Sift``), from a
notebook, or from the example scripts, without pytest.

Every driver returns an :class:`ExperimentOutput` carrying:

* ``records`` — a list of flat dictionaries (one per table row / curve point),
* ``columns`` — the column order for the printed table,
* ``title`` — a human-readable experiment title.

The drivers operate on the synthetic surrogate data sets (see
:mod:`repro.datasets.registry`); scale is controlled by the
:class:`ExperimentConfig` so a smoke run finishes in seconds while
``--full`` scale reproduces the shapes reported in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.api import SearchOptions, Searcher, build_index
from repro.core.ball_tree import BallTree
from repro.core.policies import BranchPreference
from repro.datasets import load_dataset, random_hyperplane_queries
from repro.datasets.registry import DATASETS, available_datasets
from repro.eval.ground_truth import exact_ground_truth
from repro.eval.metrics import average_recall
from repro.eval.profiling import profile_from_stats
from repro.eval.runner import evaluate_index
from repro.eval.sweeps import (
    default_hash_settings,
    default_tree_settings,
    pareto_frontier,
    query_time_at_recall,
    sweep_index,
)
from repro.utils.timing import Timer

DEFAULT_DATASETS = ("Music", "GloVe", "Sift", "Msong", "Cifar-10", "Sun")

EXPERIMENTS = (
    "table2",
    "table3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "partitioned",
    "batch",
)


@dataclass
class ExperimentConfig:
    """Scale and workload knobs shared by every experiment driver."""

    datasets: Sequence[str] = DEFAULT_DATASETS
    num_points: Optional[int] = 4000
    num_queries: int = 20
    k: int = 10
    leaf_size: int = 100
    num_tables: int = 32
    seed: int = 0
    recall_target: float = 0.8

    def dataset_names(self) -> List[str]:
        if self.datasets:
            return list(self.datasets)
        return available_datasets(include_large_scale=False)


@dataclass
class ExperimentOutput:
    """Records plus presentation metadata returned by every driver."""

    experiment: str
    title: str
    columns: Sequence[str]
    records: List[Dict] = field(default_factory=list)


@dataclass
class _Workload:
    name: str
    points: np.ndarray
    queries: np.ndarray
    ground_truth: np.ndarray


def _build_workload(name: str, config: ExperimentConfig) -> _Workload:
    dataset = load_dataset(name, num_points=config.num_points)
    queries = random_hyperplane_queries(
        dataset.points, config.num_queries, rng=config.seed + 2023
    )
    truth, _ = exact_ground_truth(dataset.points, queries, config.k)
    return _Workload(
        name=name, points=dataset.points, queries=queries, ground_truth=truth
    )


def _tree_methods(config: ExperimentConfig) -> Dict[str, Callable[[], object]]:
    return {
        "BC-Tree": lambda: build_index(
            "bc_tree", leaf_size=config.leaf_size, random_state=config.seed
        ),
        "Ball-Tree": lambda: build_index(
            "ball_tree", leaf_size=config.leaf_size, random_state=config.seed
        ),
    }


def _hash_methods(config: ExperimentConfig, dim: int) -> Dict[str, Callable[[], object]]:
    return {
        "NH": lambda: build_index(
            "nh",
            num_tables=config.num_tables,
            sample_dim=4 * dim,
            random_state=config.seed,
        ),
        "FH": lambda: build_index(
            "fh",
            num_tables=config.num_tables,
            num_partitions=4,
            sample_dim=4 * dim,
            random_state=config.seed,
        ),
    }


# --------------------------------------------------------------------- tables


def run_table2(config: ExperimentConfig) -> ExperimentOutput:
    """Table II — data set statistics (paper sizes and surrogate sizes)."""
    records = []
    for name in config.dataset_names():
        spec = DATASETS[name]
        records.append(
            {
                "dataset": spec.name,
                "paper_n": spec.paper_points,
                "d": spec.paper_dim,
                "data_type": spec.data_type,
                "surrogate_n": spec.surrogate_points
                if config.num_points is None
                else min(spec.surrogate_points, config.num_points),
                "generator": spec.generator,
            }
        )
    return ExperimentOutput(
        experiment="table2",
        title="Table II — data set statistics (paper vs surrogate)",
        columns=["dataset", "paper_n", "d", "data_type", "surrogate_n", "generator"],
        records=records,
    )


def run_table3(config: ExperimentConfig) -> ExperimentOutput:
    """Table III — indexing time and index size of every method."""
    records = []
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        dim = workload.points.shape[1] + 1
        methods: Dict[str, Callable[[], object]] = {}
        methods.update(_tree_methods(config))
        methods.update(_hash_methods(config, dim))
        for method, factory in methods.items():
            index = factory()
            with Timer() as timer:
                index.fit(workload.points)
            records.append(
                {
                    "dataset": name,
                    "method": method,
                    "indexing_seconds": timer.elapsed,
                    "index_size_mb": index.index_size_bytes() / (1024.0 * 1024.0),
                }
            )
    return ExperimentOutput(
        experiment="table3",
        title="Table III — indexing time (s) and index size (MB)",
        columns=["dataset", "method", "indexing_seconds", "index_size_mb"],
        records=records,
    )


# -------------------------------------------------------------------- figures


def _sweep_all(workload: _Workload, config: ExperimentConfig) -> Dict[str, List]:
    dim = workload.points.shape[1] + 1
    curves: Dict[str, List] = {}
    for method, factory in _tree_methods(config).items():
        curves[method] = pareto_frontier(
            sweep_index(
                factory(),
                workload.points,
                workload.queries,
                config.k,
                settings=default_tree_settings(),
                method_name=method,
                dataset_name=workload.name,
                ground_truth=workload.ground_truth,
            )
        )
    for method, factory in _hash_methods(config, dim).items():
        curves[method] = pareto_frontier(
            sweep_index(
                factory(),
                workload.points,
                workload.queries,
                config.k,
                settings=default_hash_settings(),
                method_name=method,
                dataset_name=workload.name,
                ground_truth=workload.ground_truth,
            )
        )
    return curves


def run_fig5(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 5 — query time vs recall curves (k = 10)."""
    records = []
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        for method, frontier in _sweep_all(workload, config).items():
            for point in frontier:
                records.append(
                    {
                        "dataset": name,
                        "method": method,
                        "recall": point.recall,
                        "avg_query_ms": point.avg_query_ms,
                        "setting": point.search_kwargs,
                    }
                )
    return ExperimentOutput(
        experiment="fig5",
        title=f"Figure 5 — query time vs recall (k = {config.k})",
        columns=["dataset", "method", "recall", "avg_query_ms", "setting"],
        records=records,
    )


def run_fig6(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 6 — query time vs k at about the target recall."""
    records = []
    ks = (1, 10, 20, 40)
    for name in config.dataset_names():
        base = _build_workload(name, config)
        for k in ks:
            k_config = ExperimentConfig(**{**config.__dict__, "k": k})
            truth, _ = exact_ground_truth(base.points, base.queries, k)
            workload = _Workload(name, base.points, base.queries, truth)
            for method, frontier in _sweep_all(workload, k_config).items():
                time_ms = query_time_at_recall(frontier, config.recall_target)
                if time_ms is None:
                    time_ms = min(p.avg_query_ms for p in frontier)
                records.append(
                    {
                        "dataset": name,
                        "method": method,
                        "k": k,
                        "query_ms_at_recall": time_ms,
                    }
                )
    return ExperimentOutput(
        experiment="fig6",
        title=(
            "Figure 6 — query time vs k at about "
            f"{config.recall_target:.0%} recall"
        ),
        columns=["dataset", "method", "k", "query_ms_at_recall"],
        records=records,
    )


def run_fig7(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 7 — center preference vs lower-bound preference."""
    records = []
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        for method, factory in _tree_methods(config).items():
            for preference in (BranchPreference.CENTER, BranchPreference.LOWER_BOUND):
                settings = [
                    {**setting, "branch_preference": preference}
                    for setting in default_tree_settings()
                ]
                frontier = pareto_frontier(
                    sweep_index(
                        factory(),
                        workload.points,
                        workload.queries,
                        config.k,
                        settings=settings,
                        method_name=f"{method} ({preference.value})",
                        dataset_name=name,
                        ground_truth=workload.ground_truth,
                    )
                )
                for point in frontier:
                    records.append(
                        {
                            "dataset": name,
                            "method": method,
                            "preference": preference.value,
                            "recall": point.recall,
                            "avg_query_ms": point.avg_query_ms,
                        }
                    )
    return ExperimentOutput(
        experiment="fig7",
        title="Figure 7 — branch preference choice (center vs lower bound)",
        columns=["dataset", "method", "preference", "recall", "avg_query_ms"],
        records=records,
    )


def run_fig8(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 8 — effectiveness of the point-level lower bounds (ablation)."""
    variants = {
        "BC-Tree": {"use_ball_bound": True, "use_cone_bound": True},
        "BC-Tree-wo-C": {"use_ball_bound": True, "use_cone_bound": False},
        "BC-Tree-wo-B": {"use_ball_bound": False, "use_cone_bound": True},
        "BC-Tree-wo-BC": {"use_ball_bound": False, "use_cone_bound": False},
    }
    records = []
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        for variant, flags in variants.items():
            index = build_index(
                "bc_tree",
                leaf_size=config.leaf_size,
                random_state=config.seed,
                **flags,
            )
            evaluation = evaluate_index(
                index,
                workload.points,
                workload.queries,
                config.k,
                method_name=variant,
                dataset_name=name,
                ground_truth=workload.ground_truth,
            )
            summary = evaluation.stats_summary()
            records.append(
                {
                    "dataset": name,
                    "variant": variant,
                    "recall": evaluation.recall,
                    "avg_query_ms": evaluation.avg_query_ms,
                    "avg_candidates": summary.get("candidates_verified", 0.0),
                    "avg_pruned_ball": summary.get("points_pruned_ball", 0.0),
                    "avg_pruned_cone": summary.get("points_pruned_cone", 0.0),
                }
            )
    return ExperimentOutput(
        experiment="fig8",
        title="Figure 8 — point-level lower bound ablation (exact search)",
        columns=[
            "dataset",
            "variant",
            "recall",
            "avg_query_ms",
            "avg_candidates",
            "avg_pruned_ball",
            "avg_pruned_cone",
        ],
        records=records,
    )


def run_fig9(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 9 — large-scale data sets (Deep100M / Sift100M surrogates)."""
    large_config = ExperimentConfig(
        **{
            **config.__dict__,
            "datasets": ("Deep100M", "Sift100M"),
            # The surrogates are capped well below 100M; use a larger slice
            # than the small-data default when the caller has not overridden.
            "num_points": config.num_points,
        }
    )
    output = run_fig5(large_config)
    output.experiment = "fig9"
    output.title = f"Figure 9 — large-scale surrogates (k = {config.k})"
    return output


def run_fig10(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 10 — per-stage time profile at about 90% recall."""
    records = []
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        dim = workload.points.shape[1] + 1
        methods: Dict[str, Callable[[], object]] = {}
        methods.update(_tree_methods(config))
        methods.update(_hash_methods(config, dim))
        for method, factory in methods.items():
            index = factory().fit(workload.points)
            is_tree = isinstance(index, BallTree)
            stats_list = []
            times = []
            recalls = []
            for query, truth in zip(workload.queries, workload.ground_truth):
                kwargs = {"profile": True} if is_tree else {}
                with Timer() as timer:
                    result = index.search(query, k=config.k, **kwargs)
                stats_list.append(result.stats)
                times.append(timer.elapsed)
                recalls.append(average_recall([result], truth[None, :]))
            profile = profile_from_stats(
                method,
                name,
                stats_list,
                query_seconds=times,
                is_hashing=not is_tree,
            )
            record = profile.as_record()
            record["recall"] = float(np.mean(recalls))
            records.append(record)
    return ExperimentOutput(
        experiment="fig10",
        title="Figure 10 — query time profile (ms per stage)",
        columns=[
            "dataset",
            "method",
            "recall",
            "verification_ms",
            "lower_bounds_ms",
            "table_lookup_ms",
            "other_ms",
            "total_ms",
        ],
        records=records,
    )


def run_fig11(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 11 — impact of the leaf size N0 on BC-Tree."""
    leaf_sizes = (25, 50, 100, 200, 500, 1000)
    records = []
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        for leaf_size in leaf_sizes:
            if leaf_size > workload.points.shape[0]:
                continue
            index = build_index(
                "bc_tree", leaf_size=leaf_size, random_state=config.seed
            )
            frontier = pareto_frontier(
                sweep_index(
                    index,
                    workload.points,
                    workload.queries,
                    config.k,
                    settings=default_tree_settings(),
                    method_name=f"BC-Tree (N0={leaf_size})",
                    dataset_name=name,
                    ground_truth=workload.ground_truth,
                )
            )
            for point in frontier:
                records.append(
                    {
                        "dataset": name,
                        "leaf_size": leaf_size,
                        "recall": point.recall,
                        "avg_query_ms": point.avg_query_ms,
                    }
                )
    return ExperimentOutput(
        experiment="fig11",
        title="Figure 11 — impact of the leaf size N0 (BC-Tree)",
        columns=["dataset", "leaf_size", "recall", "avg_query_ms"],
        records=records,
    )


def run_partitioned(config: ExperimentConfig) -> ExperimentOutput:
    """Extension — sharded search scaling (Section III-A's distributed claim)."""
    records = []
    partition_counts = (1, 2, 4, 8)
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        for num_partitions in partition_counts:
            if num_partitions > workload.points.shape[0]:
                continue
            index = build_index(
                "partitioned",
                num_partitions=num_partitions,
                random_state=config.seed,
            )
            index.fit(workload.points)
            recalls = []
            times = []
            for query, truth in zip(workload.queries, workload.ground_truth):
                with Timer() as timer:
                    result = index.search(query, k=config.k)
                times.append(timer.elapsed)
                recalls.append(average_recall([result], truth[None, :]))
            records.append(
                {
                    "dataset": name,
                    "num_partitions": num_partitions,
                    "recall": float(np.mean(recalls)),
                    "avg_query_ms": float(np.mean(times)) * 1000.0,
                    "indexing_seconds": index.indexing_seconds,
                }
            )
    return ExperimentOutput(
        experiment="partitioned",
        title="Extension — partitioned (sharded) exact search",
        columns=[
            "dataset",
            "num_partitions",
            "recall",
            "avg_query_ms",
            "indexing_seconds",
        ],
        records=records,
    )


def run_batch(config: ExperimentConfig) -> ExperimentOutput:
    """Extension — batched query throughput through the execution engine.

    Measures queries/second of ``batch_search`` for the tree indexes
    (answered by the block traversal kernel — exact *and* under the
    candidate budget the paper's Figures 5-6 sweep), the linear scan, and
    the NH/FH hashing baselines (answered by the vectorized whole-batch
    hashing kernel) across worker-pool sizes.  The ``path`` column records
    which execution path the engine dispatched (``kernel``, ``fast-gemm``,
    or ``per-query`` for the linear scan, which has no batch kernel).
    Recall is a sanity check (batched results are bit-identical to
    sequential search, so it always matches the sequential number).
    """
    from repro.engine.batch import kernel_dispatch_path

    n_jobs_grid = (1, 2, 4)
    #: Sweep for the tree indexes: exact, one paper-style candidate
    #: budget, and the approximate fast mode — so the table shows the
    #: budgeted configurations riding the kernel path and the fast-gemm
    #: dispatch row side by side.
    tree_budgets = ({}, {"candidate_fraction": 0.1}, {"exact": False})
    records = []
    for name in config.dataset_names():
        workload = _build_workload(name, config)
        dim = workload.points.shape[1] + 1
        tree_names = set()
        methods: Dict[str, Callable[[], object]] = {}
        methods.update(_tree_methods(config))
        tree_names.update(methods)
        methods["Linear"] = lambda: build_index("linear_scan")
        methods.update(_hash_methods(config, dim))
        for method, factory in methods.items():
            index = factory().fit(workload.points)
            # Warm up (builds the traversal engine) so the n_jobs=1 baseline
            # doesn't carry one-time setup cost into the speedup column.
            index.search(workload.queries[0], k=config.k)
            budgets = tree_budgets if method in tree_names else ({},)
            # One warm Searcher session per pool size; the budget sweep
            # below reuses each session's pool instead of respawning it
            # per configuration (results are bit-identical either way).
            sessions = {
                n_jobs: Searcher(
                    index, SearchOptions(k=config.k, n_jobs=n_jobs)
                )
                for n_jobs in n_jobs_grid
            }
            try:
                for search_kwargs in budgets:
                    baseline_qps = None
                    path = kernel_dispatch_path(index, **search_kwargs)
                    if "candidate_fraction" in search_kwargs:
                        budget_label = (
                            "cf=%g" % search_kwargs["candidate_fraction"]
                        )
                    elif not search_kwargs.get("exact", True):
                        budget_label = "fast"
                    else:
                        budget_label = "exact"
                    for n_jobs in n_jobs_grid:
                        batch = sessions[n_jobs].batch_search(
                            workload.queries,
                            **search_kwargs,
                        )
                        recalls = [
                            average_recall([result], truth[None, :])
                            for result, truth in zip(
                                batch, workload.ground_truth
                            )
                        ]
                        qps = batch.queries_per_second
                        if baseline_qps is None:
                            baseline_qps = qps
                        records.append(
                            {
                                "dataset": name,
                                "method": method,
                                "budget": budget_label,
                                "n_jobs": n_jobs,
                                # batch.n_jobs is the pool size actually used
                                # (the request is capped at the machine's CPU
                                # count).
                                "workers": batch.n_jobs,
                                "path": path,
                                "queries_per_second": qps,
                                "speedup_vs_1": (
                                    qps / baseline_qps if baseline_qps else 0.0
                                ),
                                "recall": float(np.mean(recalls)),
                            }
                        )
            finally:
                for session in sessions.values():
                    session.close()
    return ExperimentOutput(
        experiment="batch",
        title="Extension — batched search throughput (engine worker pool)",
        columns=[
            "dataset",
            "method",
            "budget",
            "n_jobs",
            "workers",
            "path",
            "queries_per_second",
            "speedup_vs_1",
            "recall",
        ],
        records=records,
    )


_DRIVERS: Dict[str, Callable[[ExperimentConfig], ExperimentOutput]] = {
    "table2": run_table2,
    "table3": run_table3,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "partitioned": run_partitioned,
    "batch": run_batch,
}


def run_experiment(name: str, config: Optional[ExperimentConfig] = None) -> ExperimentOutput:
    """Run one experiment by id (``"table3"``, ``"fig5"``, ...)."""
    key = str(name).lower()
    if key not in _DRIVERS:
        known = ", ".join(sorted(_DRIVERS))
        raise KeyError(f"unknown experiment {name!r}; available: {known}")
    return _DRIVERS[key](config or ExperimentConfig())
