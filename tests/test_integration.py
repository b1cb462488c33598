"""End-to-end integration tests across datasets, indexes, and the harness.

These tests reproduce, at miniature scale, the qualitative claims the
paper's evaluation makes (the "shape" of Table III and Figures 5/8):

* every index answers the same queries correctly or with recall that grows
  with its budget knob;
* tree indexing overhead is far below the hashing baselines';
* BC-Tree verifies no more candidates than Ball-Tree thanks to point-level
  pruning.
"""

import numpy as np
import pytest

from repro import BallTree, BCTree, FHIndex, KDTree, LinearScan, NHIndex
from repro.datasets import load_dataset, random_hyperplane_queries
from repro.eval import (
    evaluate_index,
    exact_ground_truth,
    pareto_frontier,
    sweep_index,
)
from repro.eval.metrics import recall_at_k


@pytest.fixture(scope="module")
def workload():
    dataset = load_dataset("Sift", num_points=3000)
    points = dataset.points
    queries = random_hyperplane_queries(points, 8, rng=77)
    truth_idx, truth_dist = exact_ground_truth(points, queries, 10)
    return points, queries, truth_idx, truth_dist


class TestAllIndexesAgree:
    def test_exact_methods_return_identical_distance_sets(self, workload):
        points, queries, _, truth_dist = workload
        indexes = [
            LinearScan().fit(points),
            BallTree(leaf_size=100, random_state=0).fit(points),
            BCTree(leaf_size=100, random_state=0).fit(points),
            KDTree(leaf_size=100).fit(points),
        ]
        for index in indexes:
            for query, truth in zip(queries, truth_dist):
                result = index.search(query, k=10)
                np.testing.assert_allclose(
                    np.sort(result.distances), np.sort(truth), atol=1e-8
                )

    def test_hashing_recall_reasonable_and_tunable(self, workload):
        points, queries, truth_idx, _ = workload
        nh = NHIndex(num_tables=16, sample_dim=128, random_state=0).fit(points)
        fh = FHIndex(num_tables=16, num_partitions=4, sample_dim=128,
                     random_state=0).fit(points)
        for index in (nh, fh):
            low = np.mean([
                recall_at_k(index.search(q, k=10, probes_per_table=4).indices, t)
                for q, t in zip(queries, truth_idx)
            ])
            high = np.mean([
                recall_at_k(index.search(q, k=10, probes_per_table=600).indices, t)
                for q, t in zip(queries, truth_idx)
            ])
            assert high >= low
            assert high > 0.8


class TestTableIIIShape:
    def test_tree_indexing_overhead_far_below_hashing(self, workload):
        """Table III shape: trees are orders of magnitude lighter than NH/FH.

        NH/FH are configured at the paper's operating point (lambda = 8d,
        m = 128) where both their index size and their build time exceed the
        trees'.
        """
        points, _, _, _ = workload
        dim = points.shape[1] + 1
        ball = BallTree(leaf_size=100, random_state=0).fit(points)
        bc = BCTree(leaf_size=100, random_state=0).fit(points)
        nh = NHIndex(num_tables=128, sample_dim=8 * dim, random_state=0).fit(points)
        fh = FHIndex(num_tables=128, num_partitions=4, sample_dim=8 * dim,
                     random_state=0).fit(points)
        for tree in (ball, bc):
            for hashing in (nh, fh):
                assert hashing.index_size_bytes() > 10 * tree.index_size_bytes()
                assert hashing.indexing_seconds > tree.indexing_seconds

    def test_bc_tree_construction_not_slower_than_ball_tree_by_much(self, workload):
        """The paper reports BC-Tree builds as fast as Ball-Tree (Lemma 1)."""
        points, _, _, _ = workload
        ball = BallTree(leaf_size=100, random_state=0).fit(points)
        bc = BCTree(leaf_size=100, random_state=0).fit(points)
        assert bc.indexing_seconds < 3.0 * ball.indexing_seconds + 0.05


class TestFigure5And8Shape:
    def test_recall_grows_along_the_tree_sweep(self, workload):
        points, queries, _, _ = workload
        curve = sweep_index(
            BCTree(leaf_size=100, random_state=0).fit(points),
            points,
            queries,
            10,
            settings=[{"candidate_fraction": f} for f in (0.02, 0.1, 0.5)] + [{}],
        )
        recalls = [point.recall for point in curve]
        assert recalls == sorted(recalls)
        assert recalls[-1] == pytest.approx(1.0)
        assert pareto_frontier(curve)[-1].recall == pytest.approx(1.0)

    def test_bc_point_pruning_reduces_candidates_vs_ball(self, workload):
        points, queries, _, _ = workload
        ball = BallTree(leaf_size=100, random_state=0).fit(points)
        bc = BCTree(leaf_size=100, random_state=0).fit(points)
        ball_total = sum(
            ball.search(q, k=10).stats.candidates_verified for q in queries
        )
        bc_total = sum(
            bc.search(q, k=10).stats.candidates_verified for q in queries
        )
        assert bc_total < ball_total

    def test_evaluate_index_end_to_end(self, workload):
        points, queries, _, _ = workload
        evaluation = evaluate_index(
            BCTree(leaf_size=100, random_state=0),
            points,
            queries,
            10,
            dataset_name="Sift-surrogate",
        )
        assert evaluation.recall == pytest.approx(1.0)
        record = evaluation.as_record()
        assert record["dataset"] == "Sift-surrogate"
        assert record["index_size_mb"] > 0


class TestPersistenceAcrossIndexes:
    @pytest.mark.parametrize("factory", [
        lambda: BallTree(leaf_size=64, random_state=0),
        lambda: BCTree(leaf_size=64, random_state=0),
        lambda: NHIndex(num_tables=4, sample_dim=64, random_state=0),
        lambda: FHIndex(num_tables=4, sample_dim=64, random_state=0),
    ])
    def test_save_load_preserves_results(self, tmp_path, workload, factory):
        points, queries, _, _ = workload
        index = factory().fit(points)
        expected = index.search(queries[0], k=5)
        path = tmp_path / f"{type(index).__name__}.pkl"
        index.save(path)
        loaded = type(index).load(path)
        result = loaded.search(queries[0], k=5)
        np.testing.assert_array_equal(expected.indices, result.indices)
