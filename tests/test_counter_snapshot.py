"""Checked-in snapshot of the tree kernels' answers and work counters.

Every other parity test compares the block kernel with itself (a batch
against a loop of one-row ``search``) or compares final answers with a
linear scan, so a change that keeps answers exact but prunes less (a
weaker point bound, a swapped child order, a mode that silently runs the
plain leaf scan) passes all of them.  This test pins, per query, the answer
ids and the six :class:`~repro.core.results.SearchStats` work counters of
every tree family and mode on two small seeded surrogates, and compares
them with ``tests/fixtures/counter_snapshot.json`` at tolerance 0.

The snapshot holds no times and no distances: distance bits move with the
BLAS kernel (GEMV rounding differs between CPU code paths), while ids and
counters did not move on a second OpenBLAS core type
(``OPENBLAS_CORETYPE=Prescott``).  Its ``build`` entry records the NumPy
and BLAS build that wrote it, for diagnosis only.

The same mechanism pins the paper artefacts' deterministic numbers in
``tests/fixtures/artefact_snapshot.json``: the ``repro run`` drivers'
Table III index bytes, Figure 8's mean candidates and prune counters, and
the trees' recall at every Figure 5 sweep setting, on one small surrogate.

Regenerate both after a change that is *meant* to move them, and review the
fixtures' diffs like code::

    REPRO_UPDATE_COUNTER_SNAPSHOT=1 PYTHONPATH=src \\
        python -m pytest tests/test_counter_snapshot.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import BallTree, BCTree, BestFirstSearcher, KDTree, RPTree
from repro.datasets import load_dataset, random_hyperplane_queries
from repro.eval.experiments import (
    TABLE3_RATIO,
    TREES,
    ExperimentConfig,
    run_experiment,
)
from repro.eval.regression import compare_runs

SNAPSHOT = Path(__file__).parent / "fixtures" / "counter_snapshot.json"
UPDATE_ENV = "REPRO_UPDATE_COUNTER_SNAPSHOT"

#: Music: heavy-tailed norms, where BC-Tree's cone bound prunes; Sift: the
#: clustered surrogate the end-to-end benchmark uses.
DATASETS = ("Music", "Sift")
NUM_POINTS = 2000
NUM_QUERIES = 30
QUERY_SEED = 7
LEAF_SIZE = 50
K = 10

COUNTERS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
)
KEY_COLUMNS = ("dataset", "family", "order", "budget", "query")

FAMILIES = {
    "ball": lambda: BallTree(leaf_size=LEAF_SIZE, random_state=0),
    "bc": lambda: BCTree(leaf_size=LEAF_SIZE, random_state=0),
    "bc-no-ball": lambda: BCTree(
        leaf_size=LEAF_SIZE, random_state=0, use_ball_bound=False
    ),
    "bc-no-cone": lambda: BCTree(
        leaf_size=LEAF_SIZE, random_state=0, use_cone_bound=False
    ),
    "bc-sequential": lambda: BCTree(
        leaf_size=LEAF_SIZE, random_state=0, scan_mode="sequential"
    ),
    "rp": lambda: RPTree(leaf_size=LEAF_SIZE, random_state=0),
    "kd": lambda: KDTree(leaf_size=LEAF_SIZE),
}
BEST_FIRST_FAMILIES = ("ball", "bc")

#: Exact search plus two budgets: 40 candidates is below the trees' node
#: count (lazy per-node inner products), 15 % of the points above it
#: (the eager GEMV precompute).
BUDGETS = {
    "exact": {},
    "max_candidates=40": {"max_candidates": 40},
    "candidate_fraction=0.15": {"candidate_fraction": 0.15},
}


def _build_info():
    info = {"numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # pragma: no cover - NumPy < 1.26
        return info
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def _workload(name):
    points = load_dataset(name, num_points=NUM_POINTS).points
    queries = random_hyperplane_queries(points, NUM_QUERIES, rng=QUERY_SEED)
    indexes = {family: make().fit(points) for family, make in FAMILIES.items()}
    return points, queries, indexes


def _searchers(indexes):
    """``(family, order, searcher)`` for every depth- and best-first mode."""
    for family, index in indexes.items():
        yield family, "depth_first", index
    for family in BEST_FIRST_FAMILIES:
        yield family, "best_first", BestFirstSearcher(indexes[family])


def _records(name, queries, indexes, call):
    records = []
    for family, order, searcher in _searchers(indexes):
        for budget, kwargs in BUDGETS.items():
            if call == "search":
                results = [searcher.search(q, k=K, **kwargs) for q in queries]
            else:
                results = list(
                    searcher.batch_search(queries, k=K, n_jobs=1, **kwargs)
                )
            for qi, result in enumerate(results):
                record = {
                    "dataset": name,
                    "family": family,
                    "order": order,
                    "budget": budget,
                    "query": qi,
                    "ids": [int(i) for i in result.indices],
                }
                for counter in COUNTERS:
                    record[counter] = int(getattr(result.stats, counter))
                records.append(record)
    return records


#: One fixture row per query: its key, its answer ids, its counters.
COLUMNS = KEY_COLUMNS + ("ids",) + COUNTERS


def _write_snapshot(path, columns, records):
    rows = ",\n".join(
        json.dumps([r[column] for column in columns]) for r in records
    )
    path.write_text(
        "{\n"
        f'"build": {json.dumps(_build_info(), sort_keys=True)},\n'
        f'"columns": {json.dumps(columns)},\n'
        '"rows": [\n'
        f"{rows}\n"
        "]}\n",
        encoding="utf-8",
    )


def _read_snapshot(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    records = [dict(zip(data["columns"], row)) for row in data["rows"]]
    return data["build"], records


def _assert_unchanged(build, baseline, current, key_columns, metric_columns):
    """Every baseline row is present with its metrics moved by exactly 0."""
    report = compare_runs(
        baseline,
        current,
        key_columns=key_columns,
        metric_columns=metric_columns,
        tolerance=0,
    )
    context = (
        f"snapshot written by {build}, running on "
        f"{_build_info()}:\n{report.summary()}"
    )
    # at tolerance 0 a metric that rose is a regression, one that fell an
    # improvement: both are a change of the program's decisions
    assert not report.missing_in_current, context
    assert not report.missing_in_baseline, context
    for moved in (report.regressions, report.improvements):
        assert not moved, "\n".join(
            [context] + [str(change.as_record()) for change in moved[:10]]
        )
    return context


@pytest.fixture(scope="module")
def workloads():
    return {name: _workload(name) for name in DATASETS}


@pytest.fixture(scope="module")
def snapshot(workloads):
    if os.environ.get(UPDATE_ENV) == "1":
        _write_snapshot(
            SNAPSHOT,
            COLUMNS,
            [
                record
                for name, (_, queries, indexes) in workloads.items()
                for record in _records(name, queries, indexes, "search")
            ],
        )
    return _read_snapshot(SNAPSHOT)


def _key(record):
    return tuple(record[column] for column in KEY_COLUMNS)


@pytest.mark.parametrize("call", ["search", "batch_search"])
@pytest.mark.parametrize("name", DATASETS)
def test_counters_and_ids_match_snapshot(workloads, snapshot, name, call):
    _, queries, indexes = workloads[name]
    current = _records(name, queries, indexes, call)
    build, records = snapshot
    baseline = [r for r in records if r["dataset"] == name]
    context = _assert_unchanged(build, baseline, current, KEY_COLUMNS, COUNTERS)
    # compare_runs skips non-numeric columns, so ids are compared here
    expected = {_key(r): r["ids"] for r in baseline}
    wrong = [_key(r) for r in current if r["ids"] != expected[_key(r)]]
    assert not wrong, f"{context}\n{len(wrong)} rows' ids differ: {wrong[:10]}"


# -- the paper artefacts' deterministic numbers ------------------------------

ARTEFACT_SNAPSHOT = SNAPSHOT.with_name("artefact_snapshot.json")
#: The drivers run at their paper configuration; only the workload is small.
ARTEFACT_WORKLOAD = ExperimentConfig(
    datasets=("Music",), num_points=1000, num_queries=10
)
ARTEFACTS = ("table3", "fig5", "fig8")
ARTEFACT_KEYS = ("artefact", "dataset", "method", "setting", "quantity")
ARTEFACT_COLUMNS = ARTEFACT_KEYS + ("value",)


def _pinned(name, record):
    """``(method, setting, quantity, value)`` of each number a record pins:
    no times, no distances."""
    if name == "table3":
        if record["method"] != TABLE3_RATIO:
            index_bytes = round(record["index_size_mb"] * 2**20)
            yield record["method"], "", "index_bytes", index_bytes
    elif name == "fig8":
        for quantity in ("avg_candidates", "avg_pruned_ball", "avg_pruned_cone"):
            yield record["variant"], f"k={record['k']}", quantity, record[quantity]
    elif record["method"] in TREES and record["recall_target"] is None:
        setting = json.dumps(record["setting"], sort_keys=True)
        yield record["method"], setting, "recall", record["recall"]


def _artefact_rows(name):
    return [
        dict(zip(ARTEFACT_COLUMNS, (name, record["dataset"], *pinned)))
        for record in run_experiment(name, ARTEFACT_WORKLOAD).records
        for pinned in _pinned(name, record)
    ]


@pytest.fixture(scope="module")
def artefact_rows():
    return {name: _artefact_rows(name) for name in ARTEFACTS}


@pytest.fixture(scope="module")
def artefact_snapshot(artefact_rows):
    if os.environ.get(UPDATE_ENV) == "1":
        _write_snapshot(
            ARTEFACT_SNAPSHOT,
            ARTEFACT_COLUMNS,
            [row for name in ARTEFACTS for row in artefact_rows[name]],
        )
    return _read_snapshot(ARTEFACT_SNAPSHOT)


@pytest.mark.parametrize("name", ARTEFACTS)
def test_artefact_numbers_match_snapshot(artefact_rows, artefact_snapshot, name):
    build, records = artefact_snapshot
    baseline = [r for r in records if r["artefact"] == name]
    assert baseline, f"no {name} rows in {ARTEFACT_SNAPSHOT.name}"
    _assert_unchanged(
        build, baseline, artefact_rows[name], ARTEFACT_KEYS, ("value",)
    )


# -- counter relations the paper's figures rest on (exact search) ----------


def _exact_stats(index, queries, searcher=None):
    searcher = index if searcher is None else searcher
    return [searcher.search(q, k=K).stats for q in queries]


@pytest.mark.parametrize("name", DATASETS)
def test_point_bounds_never_verify_more(workloads, name):
    """Fig. 8: BC-Tree's point-level bounds only remove candidates.

    Against the tree without either bound, not per bound: the cone pass
    is skipped when the ball cut leaves at most 8 points, so BC-Tree
    without its ball bound can cone-prune a point that full BC-Tree
    verifies.
    """
    points, queries, indexes = workloads[name]
    plain = BCTree(
        leaf_size=LEAF_SIZE, random_state=0,
        use_ball_bound=False, use_cone_bound=False,
    ).fit(points)
    full = _exact_stats(indexes["bc"], queries)
    for a, b in zip(full, _exact_stats(plain, queries)):
        assert a.candidates_verified <= b.candidates_verified
        assert a.nodes_visited == b.nodes_visited


@pytest.mark.parametrize("name", DATASETS)
def test_collaborative_inner_products_halve_center_work(workloads, name):
    """Theorem 5: one inner product per expanded node instead of two."""
    points, queries, indexes = workloads[name]
    separate = BCTree(
        leaf_size=LEAF_SIZE, random_state=0, collaborative_ip=False
    ).fit(points)
    for a, b in zip(
        _exact_stats(indexes["bc"], queries), _exact_stats(separate, queries)
    ):
        assert a.nodes_visited == b.nodes_visited
        assert 2 * (a.center_inner_products - 1) == b.center_inner_products - 1


@pytest.mark.parametrize("family", BEST_FIRST_FAMILIES)
@pytest.mark.parametrize("name", DATASETS)
def test_best_first_visits_no_more_nodes(workloads, name, family):
    """Best-first order expands only nodes whose bound is below the final
    k-th distance, all of which depth-first order must visit too."""
    _, queries, indexes = workloads[name]
    index = indexes[family]
    depth = _exact_stats(index, queries)
    best = _exact_stats(index, queries, BestFirstSearcher(index))
    for a, b in zip(best, depth):
        assert a.nodes_visited <= b.nodes_visited
