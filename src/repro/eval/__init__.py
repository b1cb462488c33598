"""Evaluation harness: metrics, ground truth, sweeps, profiling, reports.

High-level experiment drivers that regenerate each of the paper's tables and
figures live in :mod:`repro.eval.experiments`; terminal plots and CSV export
in :mod:`repro.eval.plots`.
"""

from repro.eval.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentOutput,
    run_experiment,
)
from repro.eval.ground_truth import exact_ground_truth
from repro.eval.metrics import (
    average_recall,
    epsilon_recall,
    indexing_report,
    recall_at_k,
    summarize_query_stats,
)
from repro.eval.plots import (
    ascii_bar_chart,
    ascii_line_plot,
    records_to_csv,
    series_to_csv,
    stacked_fraction_chart,
)
from repro.eval.regression import (
    RegressionReport,
    assert_no_regressions,
    compare_runs,
)
from repro.eval.runner import (
    EvaluationResult,
    QueryEvaluation,
    evaluate_index,
)
from repro.eval.statistics import (
    bootstrap_confidence_interval,
    geometric_mean_speedup,
    paired_sign_test,
    speedup_with_uncertainty,
    summarize_samples,
)
from repro.eval.sweeps import (
    SweepPoint,
    pareto_frontier,
    sweep_index,
)

__all__ = [
    "exact_ground_truth",
    "recall_at_k",
    "average_recall",
    "epsilon_recall",
    "summarize_query_stats",
    "indexing_report",
    "evaluate_index",
    "EvaluationResult",
    "QueryEvaluation",
    "sweep_index",
    "SweepPoint",
    "pareto_frontier",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentOutput",
    "run_experiment",
    "ascii_line_plot",
    "ascii_bar_chart",
    "stacked_fraction_chart",
    "series_to_csv",
    "records_to_csv",
    "summarize_samples",
    "bootstrap_confidence_interval",
    "speedup_with_uncertainty",
    "paired_sign_test",
    "geometric_mean_speedup",
    "compare_runs",
    "assert_no_regressions",
    "RegressionReport",
]
