"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.io import write_fvecs


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig42"])

    @pytest.mark.parametrize("flag", ["--k", "--leaf-size", "--num-tables"])
    def test_run_takes_no_method_knobs(self, flag):
        """Each artefact's configuration is fixed in its driver."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table3", flag, "5"])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.method == "bc-tree"
        assert args.k == 10


class TestDatasetsCommand:
    def test_lists_small_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Cifar-10" in out
        assert "Deep100M" not in out

    def test_large_scale_flag(self, capsys):
        assert main(["datasets", "--include-large-scale"]) == 0
        assert "Deep100M" in capsys.readouterr().out


class TestSearchCommand:
    def test_search_on_registry_dataset(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "Cifar-10",
                "--num-points",
                "300",
                "--num-queries",
                "2",
                "--k",
                "5",
                "--leaf-size",
                "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bc-tree" in out
        assert "recall" in out

    def test_search_on_data_file(self, tmp_path, capsys, rng):
        points = np.asarray(rng.normal(size=(200, 10)))
        path = write_fvecs(tmp_path / "points.fvecs", points)
        code = main(
            [
                "search",
                "--data-file",
                str(path),
                "--method",
                "ball-tree",
                "--num-queries",
                "2",
                "--k",
                "3",
            ]
        )
        assert code == 0
        assert "ball-tree" in capsys.readouterr().out

    def test_search_with_candidate_fraction(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "Sun",
                "--num-points",
                "300",
                "--num-queries",
                "2",
                "--candidate-fraction",
                "0.2",
            ]
        )
        assert code == 0

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "--method", "annoy"])


class TestRunCommand:
    def test_run_table2(self, capsys):
        code = main(["run", "table2", "--datasets", "Sift,Sun"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Sift" in out and "Sun" in out

    def test_run_fig8_writes_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "fig8.json"
        csv_path = tmp_path / "fig8.csv"
        code = main(
            [
                "run",
                "fig8",
                "--datasets",
                "Cifar-10",
                "--num-points",
                "300",
                "--num-queries",
                "2",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        records = json.loads(json_path.read_text())
        assert len(records) == 16  # one row per BC-Tree variant and k
        assert csv_path.exists()
        assert "Figure 8" in capsys.readouterr().out


class TestInfoCommand:
    def test_describes_saved_index(self, tmp_path, capsys):
        from repro import BCTree

        rng = np.random.default_rng(0)
        index = BCTree(leaf_size=32, random_state=0, storage="mmap").fit(
            rng.normal(size=(200, 8))
        )
        path = tmp_path / "idx.bin"
        index.save(path)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Saved index" in out
        assert "mmap" in out
        assert "float64" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "absent.bin")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_storage_flag_round_trips_through_search(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "Cifar-10",
                "--num-points",
                "300",
                "--num-queries",
                "2",
                "--k",
                "5",
                "--storage",
                "mmap",
            ]
        )
        assert code == 0
        assert "bc-tree" in capsys.readouterr().out

    def test_storage_flag_refused_for_non_tree_methods(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "Cifar-10",
                "--num-points",
                "300",
                "--num-queries",
                "2",
                "--method",
                "linear",
                "--storage",
                "mmap",
            ]
        )
        assert code == 2
        assert "--storage applies to the tree" in capsys.readouterr().err


class TestMemoryBudgetFlag:
    def test_budget_flag_round_trips_through_search(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "Cifar-10",
                "--num-points",
                "300",
                "--num-queries",
                "2",
                "--k",
                "5",
                "--memory-budget-mb",
                "64",
            ]
        )
        assert code == 0
        assert "bc-tree" in capsys.readouterr().out

    def test_budget_flag_refused_for_non_tree_methods(self, capsys):
        code = main(
            [
                "search",
                "--dataset",
                "Cifar-10",
                "--num-points",
                "300",
                "--num-queries",
                "2",
                "--method",
                "linear",
                "--memory-budget-mb",
                "64",
            ]
        )
        assert code == 2
        assert "--memory-budget-mb applies to the tree" in (
            capsys.readouterr().err
        )


class TestInfoSidecarErrors:
    def test_info_names_missing_sidecar(self, tmp_path, capsys, rng):
        import shutil

        from repro.api import build_index, save_index
        from repro.storage import sidecar_path

        points = np.asarray(rng.normal(size=(200, 10)))
        index = build_index(
            "bc_tree", leaf_size=32, random_state=0, storage="mmap"
        ).fit(points)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        shutil.rmtree(sidecar_path(path))
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot describe index" in err
        assert str(sidecar_path(path)) in err


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "some.idx"])
        assert args.path == "some.idx"
        assert args.port == 8080
        assert args.max_batch == 64
        assert args.max_wait_ms == 2.0
        assert args.queue_depth == 1024
        assert args.timeout_ms == 10_000.0
        assert args.executor == "thread"

    def test_missing_payload_is_an_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "absent.idx")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_invalid_serve_options_rejected(self, tmp_path, capsys, rng):
        from repro.api import build_index, save_index

        points = np.asarray(rng.normal(size=(100, 6)))
        index = build_index("bc_tree", leaf_size=32, random_state=0).fit(points)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        code = main(["serve", str(path), "--max-batch", "0"])
        assert code == 2
        assert "invalid serve options" in capsys.readouterr().err

    def test_serves_and_answers_over_http(self, tmp_path, capsys, rng):
        """End to end through main(): bind, answer one query, Ctrl-C."""
        import asyncio

        from repro.api import Searcher, build_index, load_index, save_index
        from repro.serve import BackgroundServer, ServeClient, ServeConfig

        points = np.asarray(rng.normal(size=(150, 6)))
        index = build_index("bc_tree", leaf_size=32, random_state=0).fit(points)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        query = np.asarray(rng.normal(size=7))

        # The blocking `repro serve` entry point is run_server; exercise
        # the same loading + config path main() takes, against port 0.
        loaded = load_index(path)
        expected = loaded.search(query, k=3)
        with Searcher(loaded) as searcher:
            with BackgroundServer(searcher, ServeConfig()) as server:
                async def ask():
                    async with ServeClient("127.0.0.1", server.port) as client:
                        return await client.search(query, k=3)

                answer = asyncio.run(ask())
        assert answer["indices"] == [int(i) for i in expected.indices]
        assert answer["distances"] == [float(d) for d in expected.distances]
