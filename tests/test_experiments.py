"""Tests for the high-level experiment drivers (Section V regenerators)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.index_base import P2HIndex
from repro.datasets.registry import DATASETS, available_datasets
from repro.eval.experiments import (
    EXPERIMENTS,
    K_VALUES,
    TABLE3_RATIO,
    ExperimentConfig,
    run_experiment,
    run_table2,
    _tuned,
)
from repro.eval.sweeps import SweepPoint

TINY = ExperimentConfig(
    datasets=("Cifar-10",),
    num_points=400,
    num_queries=3,
    seed=0,
)


@pytest.fixture(scope="module")
def tiny():
    """Each driver's output on ``TINY``, run at most once per module."""
    outputs = {}

    def run(name):
        if name not in outputs:
            outputs[name] = run_experiment(name, TINY)
        return outputs[name]

    return run


class TestRegistryOfExperiments:
    def test_every_experiment_runs_and_fills_its_columns(self, tiny):
        for name in EXPERIMENTS:
            output = tiny(name)
            assert output.experiment == name
            assert output.records, name
            for record in output.records:
                missing = [col for col in output.columns if col not in record]
                assert not missing, f"{name}: missing {missing}"
        with pytest.raises(KeyError):
            run_experiment("fig42", TINY)

    def test_run_experiment_dispatches(self):
        output = run_experiment("table2", TINY)
        assert output.experiment == "table2"


class TestTableDrivers:
    def test_table2_lists_requested_datasets(self, tiny):
        """The requested data sets are listed within the paper's full
        catalogue: Table II lists every registered data set, in registry
        order, whatever the workload asks for."""
        records = tiny("table2").records
        names = [record["dataset"] for record in records]
        assert set(TINY.datasets) <= set(names)
        assert names == list(DATASETS)
        for record in records:
            assert record["d"] > 0 and record["surrogate_mean_norm"] > 0
            assert record["surrogate_n"] == min(400, record["surrogate_n_default"])

    def test_table2_defaults_to_all_small_datasets_when_empty(self):
        config = ExperimentConfig(datasets=(), num_points=100)
        records = run_table2(config).records
        names = [record["dataset"] for record in records]
        assert set(available_datasets(include_large_scale=False)) <= set(names)
        # ... and the two large-scale data sets, which Table II also lists.
        assert names == available_datasets()
        for record in records:
            assert record["surrogate_n"] == min(100, record["surrogate_n_default"])

    def test_table3_reports_all_methods(self, tiny):
        output = tiny("table3")
        methods = {record["method"] for record in output.records}
        assert methods == {
            "BC-Tree",
            "Ball-Tree",
            "NH (lambda=d)",
            "NH (lambda=8d)",
            "FH (lambda=d)",
            "FH (lambda=8d)",
            TABLE3_RATIO,
        }
        for record in output.records:
            assert record["indexing_seconds"] >= 0.0
            assert record["index_size_mb"] > 0.0

    def test_table3_tree_index_smaller_than_hashing(self, tiny):
        """The headline Table III claim at surrogate scale: tree index size is
        far below the hashing index size."""
        output = tiny("table3")
        sizes = {record["method"]: record["index_size_mb"] for record in output.records}
        assert sizes["BC-Tree"] < sizes["NH (lambda=d)"]
        assert sizes["Ball-Tree"] < sizes["FH (lambda=d)"]
        assert sizes[TABLE3_RATIO] == pytest.approx(
            min(sizes["NH (lambda=d)"], sizes["FH (lambda=d)"]) / sizes["BC-Tree"]
        )


class TestFigureDrivers:
    def test_fig5_speedups_use_the_cheapest_setting_at_target(self, tiny):
        records = tiny("fig5").records
        sweep = [r for r in records if r["recall_target"] is None]
        speedups = [r for r in records if r["recall_target"] is not None]
        assert {(r["method"], r["recall_target"]) for r in speedups} == {
            (tree, target)
            for tree in ("BC-Tree", "Ball-Tree")
            for target in (0.4, 0.6, 0.8)
        }
        for row in speedups:
            eligible = [
                r["avg_query_ms"]
                for r in sweep
                if r["method"] == row["method"]
                and r["recall"] >= row["recall_target"]
            ]
            assert row["avg_query_ms"] == min(eligible)
            if row["best_hash_ms"] is not None:
                assert row["speedup_vs_best_hash"] == pytest.approx(
                    row["best_hash_ms"] / row["avg_query_ms"]
                )

    def test_fig5_frontier_rows_are_not_dominated(self, tiny):
        sweep = [r for r in tiny("fig5").records if r["recall_target"] is None]
        for row in sweep:
            if not row["on_frontier"]:
                continue
            assert not any(
                other["method"] == row["method"]
                and other["recall"] > row["recall"]
                and other["avg_query_ms"] < row["avg_query_ms"]
                for other in sweep
            )

    def test_fig6_falls_back_to_the_best_recall_point(self):
        def point(recall, ms):
            return SweepPoint(search_kwargs={}, recall=recall, avg_query_ms=ms)

        slow_best, fast_worst = point(0.7, 5.0), point(0.3, 1.0)
        assert _tuned([fast_worst, slow_best], 0.8) is slow_best
        cheap, dear = point(0.85, 2.0), point(0.95, 3.0)
        assert _tuned([dear, slow_best, cheap], 0.8) is cheap

    def test_fig6_fits_each_method_once(self, monkeypatch):
        """Fig. 6 sweeps one fitted index per method for every k."""
        fits = Counter()
        fit = P2HIndex.fit

        def counting_fit(index, points):
            fits[type(index).__name__] += 1
            return fit(index, points)

        monkeypatch.setattr(P2HIndex, "fit", counting_fit)
        output = run_experiment("fig6", TINY)
        assert {record["k"] for record in output.records} == set(K_VALUES)
        assert fits == {"BCTree": 1, "BallTree": 1, "NHIndex": 1, "FHIndex": 1}

    def test_fig8_has_all_variants_at_full_recall(self, tiny):
        output = tiny("fig8")
        variants = {record["variant"] for record in output.records}
        assert variants == {"BC-Tree", "BC-Tree-wo-C", "BC-Tree-wo-B", "BC-Tree-wo-BC"}
        assert all(record["recall"] == pytest.approx(1.0) for record in output.records)

    def test_fig8_wo_bc_never_prunes_points(self, tiny):
        output = tiny("fig8")
        wo_bc = [r for r in output.records if r["variant"] == "BC-Tree-wo-BC"][0]
        assert wo_bc["avg_pruned_ball"] == 0
        assert wo_bc["avg_pruned_cone"] == 0

    def test_fig10_tunes_every_method_to_90_percent_recall(self, tiny):
        records = tiny("fig10").records
        assert {r["dataset"] for r in records} == {"Cifar-10", "Sun"}
        trees = [r for r in records if r["method"] in ("BC-Tree", "Ball-Tree")]
        assert trees and all(r["recall"] >= 0.9 for r in trees)

    def test_fig11_covers_multiple_leaf_sizes(self, tiny):
        output = tiny("fig11")
        leaf_sizes = {record["leaf_size"] for record in output.records}
        assert len(leaf_sizes) >= 3
        assert all(record["recall"] <= 1.0 for record in output.records)

    def test_partitioned_recall_is_exact_for_every_shard_count(self, tiny):
        output = tiny("partitioned")
        assert all(
            record["recall"] == pytest.approx(1.0) for record in output.records
        )
        shard_counts = {record["num_partitions"] for record in output.records}
        assert 1 in shard_counts and 4 in shard_counts

    def test_output_columns_subset_of_record_keys(self, tiny):
        for output in (tiny("table2"), tiny("fig8")):
            for record in output.records:
                missing = [col for col in output.columns if col not in record]
                assert not missing, f"{output.experiment}: missing {missing}"
