"""Tests for the evaluation harness: ground truth, metrics, runner, sweeps."""

import numpy as np
import pytest

from repro import BallTree, BCTree, LinearScan
from repro.core.results import SearchStats
from repro.datasets import random_hyperplane_queries
from repro.datasets.synthetic import clustered_gaussian
from repro.eval import (
    average_recall,
    evaluate_index,
    exact_ground_truth,
    pareto_frontier,
    recall_at_k,
    summarize_query_stats,
    sweep_index,
)
from repro.eval.experiments import _cheapest_at
from repro.eval.metrics import indexing_report
from repro.eval.sweeps import (
    SweepPoint,
    best_recall_point,
    default_hash_settings,
    default_tree_settings,
)


@pytest.fixture(scope="module")
def eval_workload():
    points = clustered_gaussian(400, 12, num_clusters=6, cluster_radius=2.0,
                                center_spread=8.0, rng=41)
    queries = random_hyperplane_queries(points, 6, rng=42)
    return points, queries


class TestGroundTruth:
    def test_matches_manual_computation(self, eval_workload):
        points, queries = eval_workload
        indices, distances = exact_ground_truth(points, queries, 5)
        assert indices.shape == (6, 5)
        assert distances.shape == (6, 5)
        from repro.core.distances import augment_points, normalize_query

        augmented = augment_points(points)
        for row, query in enumerate(queries):
            manual = np.abs(augmented @ normalize_query(query))
            np.testing.assert_allclose(
                distances[row], np.sort(manual)[:5], atol=1e-12
            )

    def test_sorted_and_consistent(self, eval_workload):
        points, queries = eval_workload
        indices, distances = exact_ground_truth(points, queries, 8)
        assert (np.diff(distances, axis=1) >= 0).all()

    def test_k_clamped_to_n(self):
        points = np.random.default_rng(0).normal(size=(4, 3))
        queries = np.array([[1.0, 0.0, 0.0, 0.0]])
        indices, distances = exact_ground_truth(points, queries, 10)
        assert indices.shape == (1, 4)

    def test_augmented_flag(self, eval_workload):
        points, queries = eval_workload
        from repro.core.distances import augment_points

        direct = exact_ground_truth(points, queries, 3)
        via_augmented = exact_ground_truth(
            augment_points(points), queries, 3, augmented=True
        )
        np.testing.assert_allclose(direct[1], via_augmented[1], atol=1e-12)


class TestMetrics:
    def test_recall_at_k(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3]) == 1.0
        assert recall_at_k([1, 2, 9], [1, 2, 3]) == pytest.approx(2 / 3)
        assert recall_at_k([], [1, 2]) == 0.0
        assert recall_at_k([5], []) == 1.0

    def test_average_recall(self):
        from repro.core.results import SearchResult

        results = [
            SearchResult(indices=np.array([0, 1]), distances=np.zeros(2)),
            SearchResult(indices=np.array([2, 9]), distances=np.zeros(2)),
        ]
        truth = np.array([[0, 1], [2, 3]])
        assert average_recall(results, truth) == pytest.approx(0.75)

    def test_summarize_query_stats(self):
        stats = [
            SearchStats(candidates_verified=10, nodes_visited=4),
            SearchStats(candidates_verified=20, nodes_visited=6),
        ]
        summary = summarize_query_stats(stats)
        assert summary["candidates_verified"] == pytest.approx(15.0)
        assert summary["nodes_visited"] == pytest.approx(5.0)
        assert summary["num_queries"] == 2.0
        assert summarize_query_stats([]) == {}

    def test_indexing_report(self, eval_workload):
        points, _ = eval_workload
        tree = BallTree(leaf_size=50, random_state=0).fit(points)
        report = indexing_report(tree)
        assert report["indexing_seconds"] > 0
        assert report["index_size_mb"] == pytest.approx(
            report["index_size_bytes"] / 2**20
        )


class TestRunner:
    def test_exact_index_has_full_recall(self, eval_workload):
        points, queries = eval_workload
        evaluation = evaluate_index(
            LinearScan(), points, queries, 5, dataset_name="toy"
        )
        assert evaluation.recall == pytest.approx(1.0)
        assert evaluation.avg_query_seconds > 0
        assert evaluation.dataset == "toy"
        record = evaluation.as_record()
        assert record["recall"] == pytest.approx(1.0)
        assert "avg_candidates_verified" in record

    def test_search_kwargs_forwarded(self, eval_workload):
        points, queries = eval_workload
        evaluation = evaluate_index(
            BCTree(leaf_size=20, random_state=0),
            points,
            queries,
            5,
            search_kwargs={"candidate_fraction": 0.05},
        )
        summary = evaluation.stats_summary()
        assert summary["candidates_verified"] <= 0.05 * points.shape[0] + 20

    def test_reuse_fitted_index(self, eval_workload):
        points, queries = eval_workload
        tree = BCTree(leaf_size=20, random_state=0).fit(points)
        evaluation = evaluate_index(tree, points, queries, 5, fit=False)
        assert evaluation.recall == pytest.approx(1.0)


class TestSweeps:
    def test_sweep_and_frontier(self, eval_workload):
        points, queries = eval_workload
        curve = sweep_index(
            BCTree(leaf_size=20, random_state=0).fit(points),
            points,
            queries,
            5,
            settings=[{"candidate_fraction": 0.05}, {"candidate_fraction": 0.5}, {}],
        )
        assert len(curve) == 3
        recalls = [point.recall for point in curve]
        assert recalls[-1] == pytest.approx(1.0)
        assert recalls[0] <= recalls[-1]

        frontier = pareto_frontier(curve)
        assert frontier
        # Frontier recalls must be strictly increasing with time.
        recall_values = [p.recall for p in frontier]
        assert recall_values == sorted(recall_values)

    def test_cheapest_at_and_best_recall_point(self):
        curve = [
            SweepPoint({"a": 1}, recall=0.5, avg_query_ms=1.0),
            SweepPoint({"a": 2}, recall=0.9, avg_query_ms=3.0),
            SweepPoint({"a": 3}, recall=0.95, avg_query_ms=10.0),
        ]
        assert _cheapest_at(curve, 0.8) is curve[1]
        assert _cheapest_at(curve, 0.99) is None
        assert best_recall_point(curve).recall == pytest.approx(0.95)
        with pytest.raises(ValueError):
            best_recall_point([])

    def test_default_settings_shapes(self):
        tree_settings = default_tree_settings()
        assert {} in tree_settings
        assert all(
            "candidate_fraction" in s for s in tree_settings if s
        )
        hash_settings = default_hash_settings()
        assert all("probes_per_table" in s for s in hash_settings)
