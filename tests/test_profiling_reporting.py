"""Tests for the time-profile builder and the table/JSON reporting helpers."""

import json

import numpy as np
import pytest

from repro import BCTree, NHIndex
from repro.core.results import SearchStats
from repro.datasets import random_hyperplane_queries
from repro.datasets.synthetic import clustered_gaussian
from repro.eval.profiling import STAGES, TimeProfile, profile_from_stats
from repro.eval.reporting import format_value, print_and_save, render_table, save_json


class TestProfileFromStats:
    def test_tree_profile_uses_stage_timers(self):
        points = clustered_gaussian(300, 10, num_clusters=5, rng=0)
        queries = random_hyperplane_queries(points, 4, rng=1)
        tree = BCTree(leaf_size=25, random_state=0).fit(points)
        stats, times = [], []
        for query in queries:
            result = tree.search(query, k=5, profile=True)
            stats.append(result.stats)
            times.append(result.stats.elapsed_seconds)
        profile = profile_from_stats("BC-Tree", "toy", stats, query_seconds=times)
        assert profile.total_seconds > 0
        assert profile.seconds_per_stage.get("verification", 0) >= 0
        fractions = profile.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_hashing_profile_apportioned_by_counters(self):
        points = clustered_gaussian(300, 10, num_clusters=5, rng=0)
        queries = random_hyperplane_queries(points, 4, rng=1)
        index = NHIndex(num_tables=8, sample_dim=30, random_state=0).fit(points)
        stats, times = [], []
        for query in queries:
            result = index.search(query, k=5)
            stats.append(result.stats)
            times.append(result.stats.elapsed_seconds)
        profile = profile_from_stats(
            "NH", "toy", stats, query_seconds=times, is_hashing=True
        )
        assert profile.seconds_per_stage["table_lookup"] > 0
        assert profile.seconds_per_stage["verification"] > 0
        record = profile.as_record()
        for stage in STAGES:
            assert f"{stage}_ms" in record

    def test_empty_stats_rejected(self):
        with pytest.raises(ValueError):
            profile_from_stats("x", "y", [], query_seconds=[])

    def test_zero_time_profile_fractions(self):
        profile = TimeProfile("m", "d", seconds_per_stage={"verification": 0.0})
        assert profile.fractions()["verification"] == 0.0

    def test_counter_only_profile_without_any_weights(self):
        stats = [SearchStats()]
        profile = profile_from_stats(
            "m", "d", stats, query_seconds=[0.01], is_hashing=True
        )
        assert profile.seconds_per_stage["other"] == pytest.approx(0.01)


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "True"
        assert format_value(0.0) == "0"
        assert format_value(1234.5) == "1,234"
        assert format_value(3.14159) == "3.142"
        assert format_value(0.000123) == "0.000123"
        assert format_value({"a": 1}) == '{"a": 1}'
        assert format_value("text") == "text"
        assert format_value(None) == ""

    def test_render_table_alignment_and_missing_cells(self):
        records = [
            {"method": "BC-Tree", "recall": 0.95},
            {"method": "NH", "recall": 0.8, "extra": 1},
        ]
        table = render_table(records, ["method", "recall", "extra"],
                             title="Results")
        lines = table.splitlines()
        assert lines[0] == "Results"
        assert "BC-Tree" in table
        assert "0.95" in table
        # Every data line has the same width as the header line.
        assert len(set(len(line) for line in lines[1:3])) == 1

    def test_render_table_custom_headers(self):
        table = render_table([{"a": 1}], ["a"], headers={"a": "Alpha"})
        assert "Alpha" in table

    def test_save_json_round_trip(self, tmp_path):
        records = [{"method": "BC-Tree", "recall": 0.9}]
        path = save_json(records, tmp_path / "out" / "results.json")
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert loaded[0]["method"] == "BC-Tree"

    def test_print_and_save(self, tmp_path, capsys):
        records = [{"a": 1.0, "b": "x"}]
        table = print_and_save(
            records, ["a", "b"], title="T", json_path=tmp_path / "t.json"
        )
        captured = capsys.readouterr()
        assert "T" in captured.out
        assert (tmp_path / "t.json").exists()
        assert "a" in table
