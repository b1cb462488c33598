"""The paper's Section V artefacts: Tables II-III and Figures 5-11.

Each case times one :func:`repro.eval.experiments.run_experiment` call, the
driver behind ``python -m repro run <id>``, so the benchmark and the CLI
produce the same records for the same workload.  The case prints the table,
writes its records to ``benchmarks/results/<id>.json`` and one entry of
``BENCH_paper_artefacts.json``, and asserts the claims the records carry:
Table III's NH index at lambda = d is more than 5x BC-Tree's, and in
Figure 8 the full BC-Tree never verifies more candidates than BC-Tree-wo-BC.

The workload comes from the ``REPRO_BENCH_*`` variables (see
``conftest.py``); Figure 9 loads ``REPRO_BENCH_LARGE_POINTS`` points
(default 50,000) of its two large-scale surrogates.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from conftest import (
    bench_dataset_names,
    bench_num_points,
    bench_num_queries,
    emit_bench_json,
)
from repro.eval.experiments import ExperimentConfig, run_experiment
from repro.eval.reporting import print_and_save

ARTEFACTS = (
    "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
)


def _config(name: str) -> ExperimentConfig:
    if name == "fig9":
        num_points = int(os.environ.get("REPRO_BENCH_LARGE_POINTS", "50000"))
    elif os.environ.get("REPRO_BENCH_FULL") == "1":
        num_points = None  # every surrogate at its registry size
    else:
        num_points = bench_num_points()
    return ExperimentConfig(
        datasets=tuple(bench_dataset_names()),
        num_points=num_points,
        num_queries=bench_num_queries(),
    )


def _check_table3(records):
    sizes = {(r["dataset"], r["method"]): r["index_size_mb"] for r in records}
    for (dataset, method), size in sizes.items():
        if method == "BC-Tree":
            assert sizes[dataset, "NH (lambda=d)"] > 5 * size, dataset


def _check_fig8(records):
    candidates = {
        (r["dataset"], r["variant"], r["k"]): r["avg_candidates"] for r in records
    }
    for (dataset, variant, k), verified in candidates.items():
        if variant == "BC-Tree":
            assert verified <= candidates[dataset, "BC-Tree-wo-BC", k] + 1e-9


CHECKS = {"table3": _check_table3, "fig8": _check_fig8}


@pytest.mark.parametrize("name", ARTEFACTS)
def test_paper_artefact(benchmark, results_dir, name):
    """Regenerate one artefact through its ``repro run`` driver."""
    config = _config(name)
    output = benchmark.pedantic(
        run_experiment, args=(name, config), rounds=1, iterations=1
    )
    print()
    print_and_save(
        output.records,
        output.columns,
        title=output.title,
        json_path=results_dir / f"{name}.json",
    )
    assert output.records
    emit_bench_json(
        "paper_artefacts",
        test=name,
        config=dataclasses.asdict(config),
        metrics={"num_records": len(output.records)},
        records=output.records,
    )
    CHECKS.get(name, lambda records: None)(output.records)
