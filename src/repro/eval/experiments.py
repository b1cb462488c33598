"""One driver per artefact of the paper's Section V (Tables II-III, Figs. 5-11).

Each driver runs its artefact at the paper's reporting configuration, which
is fixed in the driver: the methods, leaf sizes, hashing tables and sample
dimensions, ``k`` and the sweeps.  :class:`ExperimentConfig` chooses only
the workload: which surrogate data sets (see :mod:`repro.datasets.registry`),
how many points and queries, and the seed.  ``python -m repro run <id>``
prints a driver's records; ``benchmarks/bench_paper_artefacts.py`` times the
same call and writes the same records under ``benchmarks/results/``.  Two
more drivers, ``partitioned`` and ``batch``, measure extensions beyond the
paper.

Every driver returns an :class:`ExperimentOutput` carrying:

* ``records`` — flat dictionaries (one per table row or curve point), each
  with every key in ``columns`` (``None`` where a row kind has no value),
* ``columns`` — the column order for the printed table,
* ``title`` — a human-readable experiment title.

A smoke run at a few hundred points finishes in seconds;
``num_points=None`` loads every surrogate at its registry size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.api import SearchOptions, Searcher, build_index
from repro.core.ball_tree import BallTree
from repro.datasets import load_dataset, random_hyperplane_queries
from repro.datasets.registry import DATASETS, available_datasets
from repro.eval.ground_truth import exact_ground_truth
from repro.eval.metrics import average_recall, indexing_report
from repro.eval.profiling import profile_from_stats
from repro.eval.runner import evaluate_index
from repro.eval.sweeps import (
    SweepPoint,
    best_recall_point,
    default_hash_settings,
    default_tree_settings,
    pareto_frontier,
    sweep_index,
)
from repro.utils.timing import Timer

DEFAULT_DATASETS = ("Music", "GloVe", "Sift", "Msong", "Cifar-10", "Sun")

#: The paper's defaults: top-10 search, leaves of N0 = 100 points, and for
#: the figures NH/FH with m = 32 tables sampling lambda = 4d coordinates.
K = 10
LEAF_SIZE = 100
FIGURE_TABLES = 32
FIGURE_LAMBDA = 4
TREES = ("BC-Tree", "Ball-Tree")
HASHES = ("NH", "FH")


@dataclass
class ExperimentConfig:
    """The workload every driver runs on."""

    datasets: Sequence[str] = DEFAULT_DATASETS
    num_points: Optional[int] = 4000
    num_queries: int = 20
    seed: int = 0

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
    _truth: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        """The augmented dimension d the hashing sample sizes scale with."""
        return int(self.points.shape[1]) + 1

    def truth(self, k: int) -> np.ndarray:
        """Exact top-k ids of every query, computed once per k."""
        if k not in self._truth:
            self._truth[k] = exact_ground_truth(self.points, self.queries, k)[0]
        return self._truth[k]


def _workload(
    name: str, config: ExperimentConfig, max_queries: Optional[int] = None
) -> _Workload:
    points = load_dataset(name, num_points=config.num_points).points
    num_queries = config.num_queries
    if max_queries is not None:
        num_queries = min(num_queries, max_queries)
    queries = random_hyperplane_queries(points, num_queries, rng=config.seed + 2023)
    return _Workload(name, points, queries)


Factory = Callable[[], object]


def _tree_methods(
    seed: int, leaf_size: int = LEAF_SIZE, **kwargs
) -> Dict[str, Factory]:
    return {
        "BC-Tree": lambda: build_index(
            "bc_tree", leaf_size=leaf_size, random_state=seed, **kwargs
        ),
        "Ball-Tree": lambda: build_index(
            "ball_tree", leaf_size=leaf_size, random_state=seed, **kwargs
        ),
    }


def _hash_methods(
    seed: int,
    sample_dim: int,
    num_tables: int = FIGURE_TABLES,
    suffix: str = "",
) -> Dict[str, Factory]:
    return {
        "NH" + suffix: lambda: build_index(
            "nh", num_tables=num_tables, sample_dim=sample_dim, random_state=seed
        ),
        "FH" + suffix: lambda: build_index(
            "fh",
            num_tables=num_tables,
            num_partitions=4,
            sample_dim=sample_dim,
            random_state=seed,
        ),
    }


def _figure_methods(
    seed: int, dim: int, leaf_size: int = LEAF_SIZE, hash_lambda: int = FIGURE_LAMBDA
) -> Dict[str, Factory]:
    """BC-Tree, Ball-Tree, NH and FH as the figures run them."""
    return {
        **_tree_methods(seed, leaf_size),
        **_hash_methods(seed, hash_lambda * dim),
    }


def _sweep(index, workload: _Workload, method: str, k: int = K) -> List[SweepPoint]:
    """Sweep a fitted index's accuracy knob: a tree's candidate fraction,
    a hashing scheme's probes per table."""
    if isinstance(index, BallTree):
        settings = default_tree_settings()
    else:
        settings = default_hash_settings()
    return sweep_index(
        index,
        workload.points,
        workload.queries,
        k,
        settings=settings,
        method_name=method,
        dataset_name=workload.name,
        ground_truth=workload.truth(k),
    )


def _cheapest_at(curve: Sequence[SweepPoint], target: float) -> Optional[SweepPoint]:
    """The fastest sweep point reaching ``target`` recall, if any does."""
    eligible = [p for p in curve if p.recall >= target]
    return min(eligible, key=lambda p: p.avg_query_ms) if eligible else None


def _tuned(curve: Sequence[SweepPoint], target: float) -> SweepPoint:
    """:func:`_cheapest_at`, or the best-recall point when none reaches it."""
    return _cheapest_at(curve, target) or best_recall_point(curve)


# --------------------------------------------------------------------- tables

#: Table II's mean norm is measured on at most this many surrogate points.
NORM_SAMPLE_POINTS = 2000


def run_table2(config: ExperimentConfig) -> ExperimentOutput:
    """Table II — every registered data set: paper statistics and surrogate."""
    records = []
    for name, spec in DATASETS.items():
        sample = load_dataset(
            name, num_points=min(spec.surrogate_points, NORM_SAMPLE_POINTS)
        ).points
        records.append(
            {
                "dataset": spec.name,
                "paper_n": spec.paper_points,
                "d": spec.paper_dim,
                "data_type": spec.data_type,
                "generator": spec.generator,
                "surrogate_n_default": spec.surrogate_points,
                "surrogate_n": spec.surrogate_points
                if config.num_points is None
                else min(spec.surrogate_points, config.num_points),
                "surrogate_mean_norm": float(
                    np.mean(np.linalg.norm(sample, axis=1))
                ),
            }
        )
    return ExperimentOutput(
        experiment="table2",
        title="Table II — data sets (paper statistics vs synthetic surrogates)",
        columns=list(records[0]),
        records=records,
    )


#: Table III's hashing configuration: m = 128 tables at lambda = d and 8d.
TABLE3_TABLES = 128
TABLE3_LAMBDAS = (1, 8)
TABLE3_RATIO = "ratio hash/tree (BC-Tree vs best of NH/FH, lambda=d)"


def run_table3(config: ExperimentConfig) -> ExperimentOutput:
    """Table III — indexing time and index size, plus the hash/tree ratio."""
    records = []
    for name in config.dataset_names():
        workload = _workload(name, config)
        methods = _tree_methods(config.seed)
        for factor in TABLE3_LAMBDAS:
            label = " (lambda=d)" if factor == 1 else f" (lambda={factor}d)"
            methods.update(
                _hash_methods(
                    config.seed, factor * workload.dim, TABLE3_TABLES, label
                )
            )
        reports = {}
        for method, factory in methods.items():
            report = indexing_report(factory().fit(workload.points))
            reports[method] = report
            records.append(
                {
                    "dataset": name,
                    "method": method,
                    "indexing_seconds": report["indexing_seconds"],
                    "index_size_mb": report["index_size_mb"],
                }
            )
        ratio = {}
        for column in ("indexing_seconds", "index_size_mb"):
            best_hash = min(reports[f"{h} (lambda=d)"][column] for h in HASHES)
            ratio[column] = best_hash / max(reports["BC-Tree"][column], 1e-12)
        records.append({"dataset": name, "method": TABLE3_RATIO, **ratio})
    return ExperimentOutput(
        experiment="table3",
        title=(
            "Table III — indexing time (s) and index size (MB); "
            f"NH/FH with m = {TABLE3_TABLES} tables"
        ),
        columns=["dataset", "method", "indexing_seconds", "index_size_mb"],
        records=records,
    )


# -------------------------------------------------------------------- figures

#: Figure 5 reports each tree's speed-up over the better of NH/FH here.
RECALL_TARGETS = (0.4, 0.6, 0.8)
TIME_RECALL_COLUMNS = [
    "dataset", "method", "setting", "recall", "avg_query_ms", "on_frontier",
    "indexing_seconds", "index_size_mb",
    "recall_target", "best_hash_ms", "speedup_vs_best_hash",
]


def _curve_row(name: str, method: str, point: SweepPoint, frontier) -> Dict:
    return {
        "dataset": name,
        "method": method,
        "setting": point.search_kwargs,
        "recall": point.recall,
        "avg_query_ms": point.avg_query_ms,
        "on_frontier": any(point is p for p in frontier),
        "indexing_seconds": point.evaluation.indexing_seconds,
        "index_size_mb": point.evaluation.index_size_bytes / 2**20,
        "recall_target": None,
        "best_hash_ms": None,
        "speedup_vs_best_hash": None,
    }


def _time_recall(
    config: ExperimentConfig,
    datasets: Sequence[str],
    *,
    leaf_size: int,
    hash_lambda: int,
    max_queries: Optional[int] = None,
) -> List[Dict]:
    """Figures 5 and 9: every method's sweep, then the trees' speed-ups.

    One row per sweep setting (``on_frontier`` marks the Pareto frontier
    the paper plots), then one row per tree and recall target: the tree's
    cheapest setting reaching the target, the better of NH/FH's time at
    that target and the speed-up.
    """
    records = []
    for name in datasets:
        workload = _workload(name, config, max_queries)
        methods = _figure_methods(
            config.seed, workload.dim, leaf_size, hash_lambda
        )
        curves = {}
        for method, factory in methods.items():
            curve = _sweep(factory().fit(workload.points), workload, method)
            frontier = pareto_frontier(curve)
            records.extend(_curve_row(name, method, p, frontier) for p in curve)
            curves[method] = (curve, frontier)
        for target in RECALL_TARGETS:
            hash_points = [_cheapest_at(curves[h][0], target) for h in HASHES]
            best_hash = min(
                (p.avg_query_ms for p in hash_points if p is not None),
                default=None,
            )
            for tree in TREES:
                curve, frontier = curves[tree]
                point = _cheapest_at(curve, target)
                if point is None:
                    row = dict.fromkeys(TIME_RECALL_COLUMNS)
                    row.update(dataset=name, method=tree)
                else:
                    row = _curve_row(name, tree, point, frontier)
                    if best_hash is not None:
                        row["speedup_vs_best_hash"] = best_hash / point.avg_query_ms
                row.update(recall_target=target, best_hash_ms=best_hash)
                records.append(row)
    return records


def run_fig5(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 5 — query time vs recall (k = 10) and the trees' speed-ups."""
    return ExperimentOutput(
        experiment="fig5",
        title=(
            f"Figure 5 — query time vs recall (k = {K}); speed-up of each "
            "tree over the better of NH/FH at recall 0.4, 0.6, 0.8"
        ),
        columns=TIME_RECALL_COLUMNS,
        records=_time_recall(
            config,
            config.dataset_names(),
            leaf_size=LEAF_SIZE,
            hash_lambda=FIGURE_LAMBDA,
        ),
    )


#: Figures 6 and 8 vary k over the paper's grid.
K_VALUES = (1, 10, 20, 40)
FIG6_RECALL = 0.8


def run_fig6(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 6 — query time vs k at about 80 % recall.

    Each method is fitted once and runs, for every k, at its cheapest
    setting reaching 80 % recall; when none does, at its best-recall
    setting, and ``achieved_recall`` says so.
    """
    records = []
    for name in config.dataset_names():
        workload = _workload(name, config)
        for method, factory in _figure_methods(config.seed, workload.dim).items():
            index = factory().fit(workload.points)
            for k in K_VALUES:
                point = _tuned(_sweep(index, workload, method, k), FIG6_RECALL)
                records.append(
                    {
                        "dataset": name,
                        "method": method,
                        "k": k,
                        "setting": point.search_kwargs,
                        "query_ms_at_recall": point.avg_query_ms,
                        "achieved_recall": point.recall,
                    }
                )
    return ExperimentOutput(
        experiment="fig6",
        title=f"Figure 6 — query time (ms) vs k at about {FIG6_RECALL:.0%} recall",
        columns=[
            "dataset", "method", "k", "setting", "query_ms_at_recall",
            "achieved_recall",
        ],
        records=records,
    )


def run_fig7(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 7 — center preference vs lower-bound preference."""
    records = []
    for name in config.dataset_names():
        workload = _workload(name, config)
        for preference in ("center", "lower_bound"):
            methods = _tree_methods(config.seed, branch_preference=preference)
            for method, factory in methods.items():
                curve = _sweep(
                    factory().fit(workload.points),
                    workload,
                    f"{method} ({preference})",
                )
                for point in pareto_frontier(curve):
                    records.append(
                        {
                            "dataset": name,
                            "method": method,
                            "preference": preference,
                            "recall": point.recall,
                            "avg_query_ms": point.avg_query_ms,
                            "avg_candidates": point.evaluation.stats_summary()[
                                "candidates_verified"
                            ],
                        }
                    )
    return ExperimentOutput(
        experiment="fig7",
        title="Figure 7 — branch preference (center vs lower bound)",
        columns=[
            "dataset", "method", "preference", "recall", "avg_query_ms",
            "avg_candidates",
        ],
        records=records,
    )


FIG8_VARIANTS = {
    "BC-Tree": {"use_ball_bound": True, "use_cone_bound": True},
    "BC-Tree-wo-C": {"use_ball_bound": True, "use_cone_bound": False},
    "BC-Tree-wo-B": {"use_ball_bound": False, "use_cone_bound": True},
    "BC-Tree-wo-BC": {"use_ball_bound": False, "use_cone_bound": False},
}


def run_fig8(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 8 — the point-level lower bounds, ablated (exact search)."""
    records = []
    for name in config.dataset_names():
        workload = _workload(name, config)
        for variant, flags in FIG8_VARIANTS.items():
            index = build_index(
                "bc_tree", leaf_size=LEAF_SIZE, random_state=config.seed, **flags
            ).fit(workload.points)
            for k in K_VALUES:
                evaluation = evaluate_index(
                    index,
                    workload.points,
                    workload.queries,
                    k,
                    method_name=variant,
                    dataset_name=name,
                    ground_truth=workload.truth(k),
                    fit=False,
                )
                summary = evaluation.stats_summary()
                records.append(
                    {
                        "dataset": name,
                        "variant": variant,
                        "k": k,
                        "recall": evaluation.recall,
                        "avg_query_ms": evaluation.avg_query_ms,
                        "avg_candidates": summary["candidates_verified"],
                        "avg_pruned_ball": summary["points_pruned_ball"],
                        "avg_pruned_cone": summary["points_pruned_cone"],
                    }
                )
    return ExperimentOutput(
        experiment="fig8",
        title="Figure 8 — point-level lower bound ablation (exact search)",
        columns=[
            "dataset", "variant", "k", "recall", "avg_query_ms",
            "avg_candidates", "avg_pruned_ball", "avg_pruned_cone",
        ],
        records=records,
    )


#: Figure 9 runs on the two 100M-point sets' surrogates, with larger leaves,
#: a smaller hashing sample (lambda = 2d) and at most 10 queries.
FIG9_DATASETS = ("Deep100M", "Sift100M")


def run_fig9(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 9 — large-scale surrogates: Figure 5 with N0 = 200, lambda = 2d."""
    return ExperimentOutput(
        experiment="fig9",
        title=(
            f"Figure 9 — query time vs recall on the large-scale surrogates "
            f"(k = {K})"
        ),
        columns=TIME_RECALL_COLUMNS,
        records=_time_recall(
            config, FIG9_DATASETS, leaf_size=200, hash_lambda=2, max_queries=10
        ),
    )


#: Figure 10 profiles every method at its cheapest setting reaching 90 %.
FIG10_DATASETS = ("Cifar-10", "Sun")
FIG10_RECALL = 0.9


def run_fig10(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 10 — per-stage time profile at about 90 % recall."""
    records = []
    for name in FIG10_DATASETS:
        workload = _workload(name, config)
        for method, factory in _figure_methods(config.seed, workload.dim).items():
            is_tree = method in TREES
            index = factory().fit(workload.points)
            point = _tuned(_sweep(index, workload, method), FIG10_RECALL)
            kwargs = {**point.search_kwargs, **({"profile": True} if is_tree else {})}
            stats = [index.search(q, k=K, **kwargs).stats for q in workload.queries]
            record = profile_from_stats(
                method,
                name,
                stats,
                query_seconds=[s.elapsed_seconds for s in stats],
                is_hashing=not is_tree,
            ).as_record()
            record.update(setting=point.search_kwargs, recall=point.recall)
            records.append(record)
    return ExperimentOutput(
        experiment="fig10",
        title=(
            f"Figure 10 — per-query time profile (ms) at about "
            f"{FIG10_RECALL:.0%} recall"
        ),
        columns=[
            "dataset", "method", "setting", "recall",
            "verification_ms", "lower_bounds_ms", "table_lookup_ms", "other_ms",
            "total_ms", "avg_candidates_verified", "avg_center_inner_products",
            "avg_buckets_probed",
        ],
        records=records,
    )


FIG11_LEAF_SIZES = (20, 50, 100, 200, 500, 1000, 2000)


def run_fig11(config: ExperimentConfig) -> ExperimentOutput:
    """Figure 11 — impact of the leaf size N0 on BC-Tree."""
    records = []
    for name in config.dataset_names():
        workload = _workload(name, config)
        for leaf_size in FIG11_LEAF_SIZES:
            if leaf_size > workload.points.shape[0]:
                continue
            index = build_index(
                "bc_tree", leaf_size=leaf_size, random_state=config.seed
            ).fit(workload.points)
            curve = _sweep(index, workload, f"BC-Tree (N0={leaf_size})")
            for point in pareto_frontier(curve):
                records.append(
                    {
                        "dataset": name,
                        "leaf_size": leaf_size,
                        "recall": point.recall,
                        "avg_query_ms": point.avg_query_ms,
                        "indexing_seconds": point.evaluation.indexing_seconds,
                        "index_size_mb": point.evaluation.index_size_bytes / 2**20,
                    }
                )
    return ExperimentOutput(
        experiment="fig11",
        title="Figure 11 — impact of the leaf size N0 (BC-Tree)",
        columns=[
            "dataset", "leaf_size", "recall", "avg_query_ms", "indexing_seconds",
            "index_size_mb",
        ],
        records=records,
    )


def run_partitioned(config: ExperimentConfig) -> ExperimentOutput:
    """Extension — sharded search scaling (Section III-A's distributed claim)."""
    records = []
    partition_counts = (1, 2, 4, 8)
    for name in config.dataset_names():
        workload = _workload(name, config)
        truth = workload.truth(K)
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
            for query, query_truth in zip(workload.queries, truth):
                with Timer() as timer:
                    result = index.search(query, k=K)
                times.append(timer.elapsed)
                recalls.append(average_recall([result], query_truth[None, :]))
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
    which kernel the engine dispatched (``kernel`` or ``fast-gemm``).
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
        workload = _workload(name, config)
        truth = workload.truth(K)
        methods = _figure_methods(config.seed, workload.dim)
        methods["Linear"] = lambda: build_index("linear_scan")
        for method, factory in methods.items():
            index = factory().fit(workload.points)
            # Warm up (builds the traversal engine) so the n_jobs=1 baseline
            # doesn't carry one-time setup cost into the speedup column.
            index.search(workload.queries[0], k=K)
            budgets = tree_budgets if method in TREES else ({},)
            # One warm Searcher session per pool size; the budget sweep
            # below reuses each session's pool instead of respawning it
            # per configuration (results are bit-identical either way).
            sessions = {
                n_jobs: Searcher(index, SearchOptions(k=K, n_jobs=n_jobs))
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
                            average_recall([result], query_truth[None, :])
                            for result, query_truth in zip(batch, truth)
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

EXPERIMENTS = tuple(_DRIVERS)


def run_experiment(name: str, config: Optional[ExperimentConfig] = None) -> ExperimentOutput:
    """Run one experiment by id (``"table3"``, ``"fig5"``, ...)."""
    key = str(name).lower()
    if key not in _DRIVERS:
        known = ", ".join(sorted(_DRIVERS))
        raise KeyError(f"unknown experiment {name!r}; available: {known}")
    return _DRIVERS[key](config or ExperimentConfig())
