"""Tests for :mod:`repro.analysis` — the project-invariant static checker.

Organization mirrors the framework:

* one violating + one clean fixture per rule id (tiny ``repro/`` trees
  written under ``tmp_path`` so the path-based scope classification
  kicks in exactly as it does for the real sources);
* allow-comment semantics (suppression, rationale requirement, the
  standalone form covering the next code line, the ``*`` wildcard);
* baseline load/save/apply semantics;
* the ``repro check`` CLI exit-code contract (0 clean / 1 findings /
  2 usage error);
* self-checks pinning the repo itself: ``repro check src/`` is clean at
  HEAD, the checked-in baseline is empty, and the seeded-violation
  fixture tree fails as CI requires.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    all_rules,
    apply_baseline,
    check_paths,
    rule_table,
)
from repro.analysis.cli import main as check_main
from repro.analysis.findings import Finding
from repro.analysis.framework import ALLOW_WITHOUT_RATIONALE, PARSE_ERROR

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every project rule id the registry must expose.
PROJECT_RULE_IDS = (
    "REP101", "REP102",           # exact-path purity
    "REP201", "REP202", "REP203",  # kernel determinism
    "REP301", "REP302", "REP303",  # concurrency safety
    "REP401", "REP402", "REP403",  # public error contracts
    "REP501",                     # persistence discipline
)


def write_module(root: Path, relpath: str, source: str) -> Path:
    """Write a fixture module into a miniature ``repro/`` tree."""
    path = root / "repro" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def rule_ids(root: Path) -> list:
    """Rule ids of every finding under ``root``."""
    return [finding.rule_id for finding in check_paths([root])]


# --------------------------------------------------------------------------
# registry


def test_registry_exposes_every_project_rule():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids)), "duplicate rule ids registered"
    for rule_id in PROJECT_RULE_IDS:
        assert rule_id in ids
    for rule in rules:
        assert rule.name and rule.description


def test_rule_table_rows_are_well_formed():
    for rule_id, name, description in rule_table():
        assert rule_id.startswith("REP")
        assert name == name.strip() and name
        assert description


# --------------------------------------------------------------------------
# REP101 / REP102 — exact-path purity


def test_rep101_flags_fast_import_on_exact_path(tmp_path):
    write_module(tmp_path, "core/bad.py", """\
        from repro.engine.fast import FastTreeKernel
    """)
    assert "REP101" in rule_ids(tmp_path)


def test_rep101_flags_plain_import_form(tmp_path):
    write_module(tmp_path, "engine/traversal.py", """\
        import repro.engine.kernels
    """)
    assert "REP101" in rule_ids(tmp_path)


def test_rep101_clean_exact_path_module(tmp_path):
    write_module(tmp_path, "core/good.py", """\
        from repro.engine.traversal import descend
    """)
    assert "REP101" not in rule_ids(tmp_path)


def test_rep101_ignores_fast_import_off_the_exact_path(tmp_path):
    write_module(tmp_path, "engine/batch.py", """\
        from repro.engine.fast import FastTreeKernel
    """)
    assert "REP101" not in rule_ids(tmp_path)


def test_rep102_flags_float32_literal_and_attribute(tmp_path):
    write_module(tmp_path, "engine/block.py", """\
        import numpy as np

        def shrink(points):
            return np.asarray(points, dtype="float32")

        def shrink_attr(points, np=np):
            return points.astype(np.float32)
    """)
    assert rule_ids(tmp_path).count("REP102") == 2


def test_rep102_clean_float64_module(tmp_path):
    write_module(tmp_path, "engine/block.py", '''\
        """float32"""
        import numpy as np

        def widen(points):
            return np.asarray(points, dtype="float64")
    ''')
    # The docstring 'float32' Constant is prose, not a dtype.
    assert "REP102" not in rule_ids(tmp_path)


# --------------------------------------------------------------------------
# REP201 / REP202 / REP203 — kernel determinism


def test_rep201_flags_wall_clock_in_kernel(tmp_path):
    write_module(tmp_path, "engine/timers.py", """\
        import time

        def stamp():
            return time.time()
    """)
    assert "REP201" in rule_ids(tmp_path)


def test_rep201_clean_perf_counter(tmp_path):
    write_module(tmp_path, "engine/timers.py", """\
        import time

        def tick():
            return time.perf_counter()
    """)
    assert "REP201" not in rule_ids(tmp_path)


def test_rep202_flags_unseeded_rng(tmp_path):
    write_module(tmp_path, "core/sampling.py", """\
        import random
        import numpy as np

        def draw():
            rng = np.random.default_rng()
            random.shuffle([1, 2])
            return rng
    """)
    assert rule_ids(tmp_path).count("REP202") == 2


def test_rep202_clean_seeded_generator(tmp_path):
    write_module(tmp_path, "core/sampling.py", """\
        import numpy as np

        def draw(seed):
            return np.random.default_rng(seed)
    """)
    assert "REP202" not in rule_ids(tmp_path)


def test_rep203_flags_set_iteration(tmp_path):
    write_module(tmp_path, "hashing/buckets.py", """\
        def collect(values):
            out = []
            for item in set(values):
                out.append(item)
            return list(set(out))
    """)
    assert rule_ids(tmp_path).count("REP203") == 2


def test_rep203_clean_sorted_set(tmp_path):
    write_module(tmp_path, "hashing/buckets.py", """\
        def collect(values):
            return sorted(set(values))
    """)
    assert "REP203" not in rule_ids(tmp_path)


# --------------------------------------------------------------------------
# REP301 / REP302 — concurrency safety


def test_rep301_flags_dispatched_worker_mutating_globals(tmp_path):
    write_module(tmp_path, "engine/tasks.py", """\
        COUNT = 0

        def task(row):
            global COUNT
            COUNT += 1
            return row

        def run(pool, rows):
            return [result for result in pool.map(task, rows)]
    """)
    assert "REP301" in rule_ids(tmp_path)


def test_rep301_flags_submit_worker_mutating_self(tmp_path):
    write_module(tmp_path, "engine/tasks.py", """\
        def task(state, row):
            state.self_check = row
            return row

        class Runner:
            def mutate(self, row):
                self.last = row
                return row

        def mutate(self, row):
            self.last = row
            return row

        def run(pool, rows):
            return [pool.submit(mutate, row) for row in rows]
    """)
    assert "REP301" in rule_ids(tmp_path)


def test_rep301_clean_pure_worker_and_initializer(tmp_path):
    write_module(tmp_path, "engine/tasks.py", """\
        _WORKER_INDEX = None

        def plant(index):
            global _WORKER_INDEX
            _WORKER_INDEX = index

        def task(row):
            return row * 2

        def run(make_pool, rows, index):
            pool = make_pool(initializer=plant, initargs=(index,))
            return [result for result in pool.map(task, rows)]
    """)
    # The pure task passes; the initializer is *supposed* to plant globals.
    assert "REP301" not in rule_ids(tmp_path)


def test_rep302_flags_blocking_calls_in_serve_coroutine(tmp_path):
    write_module(tmp_path, "serve/handler.py", """\
        import time

        async def handle(searcher, query):
            time.sleep(0.01)
            return searcher.search(query)
    """)
    assert rule_ids(tmp_path).count("REP302") == 2


def test_rep302_clean_executor_pattern(tmp_path):
    write_module(tmp_path, "serve/handler.py", """\
        async def handle(loop, searcher, query):
            def work():
                return searcher.search(query)
            return await loop.run_in_executor(None, work)
    """)
    # The blocking search lives in a sync island handed to the executor.
    assert "REP302" not in rule_ids(tmp_path)


def test_rep302_ignores_blocking_calls_outside_serve(tmp_path):
    write_module(tmp_path, "eval/runner.py", """\
        import time

        async def handle(searcher, query):
            time.sleep(0.01)
            return searcher.search(query)
    """)
    assert "REP302" not in rule_ids(tmp_path)


def test_rep303_flags_blocking_calls_in_cluster_coroutine(tmp_path):
    write_module(tmp_path, "cluster/router.py", """\
        import time

        async def scatter(searcher, query):
            time.sleep(0.01)
            return searcher.search(query)
    """)
    ids = rule_ids(tmp_path)
    assert ids.count("REP303") == 2
    # Cluster modules are REP303's scope, not REP302's.
    assert "REP302" not in ids


def test_rep303_clean_executor_pattern(tmp_path):
    write_module(tmp_path, "cluster/router.py", """\
        async def scatter(loop, searcher, query):
            def work():
                return searcher.search(query)
            return await loop.run_in_executor(None, work)
    """)
    # The blocking search lives in a sync island handed to the executor.
    assert "REP303" not in rule_ids(tmp_path)


@pytest.mark.parametrize(
    "module,rule", [("serve/handler.py", "REP302"), ("cluster/shard.py", "REP303")]
)
def test_search_rows_in_a_coroutine_is_blocking(tmp_path, module, rule):
    write_module(tmp_path, module, """\
        from repro.serve import coalescer
        from repro.serve.coalescer import search_rows

        async def handle(searcher, queries):
            coalescer.search_rows(searcher, queries, 5, {})
            return search_rows(searcher, queries, 5, {})

        async def clean(loop, searcher, queries):
            return await loop.run_in_executor(
                None, lambda: search_rows(searcher, queries, 5, {})
            )
    """)
    # Flagged by name, bare or as an attribute; the call inside the
    # lambda handed to the executor is not.
    assert rule_ids(tmp_path).count(rule) == 2


def test_rep303_ignores_blocking_calls_outside_cluster(tmp_path):
    write_module(tmp_path, "eval/runner.py", """\
        import time

        async def gather(searcher, query):
            time.sleep(0.01)
            return searcher.search(query)
    """)
    assert "REP303" not in rule_ids(tmp_path)


# --------------------------------------------------------------------------
# REP401 / REP402 / REP403 — public error contracts


def test_rep401_flags_assert_in_public_module(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            assert k > 0, "k must be positive"
            return k
    """)
    assert "REP401" in rule_ids(tmp_path)


def test_rep401_clean_raises_value_error(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            if k <= 0:
                raise ValueError(f"k must be positive, got {k}")
            return k
    """)
    assert "REP401" not in rule_ids(tmp_path)


def test_rep401_ignores_assert_in_kernel_module(tmp_path):
    write_module(tmp_path, "engine/inner.py", """\
        def check(k):
            assert k > 0
            return k
    """)
    assert "REP401" not in rule_ids(tmp_path)


def test_rep402_flags_silent_broad_handler(tmp_path):
    write_module(tmp_path, "api/loader.py", """\
        def load(path):
            try:
                return open(path)
            except Exception:
                pass
            return None
    """)
    assert "REP402" in rule_ids(tmp_path)


def test_rep402_clean_narrow_silent_handler(tmp_path):
    write_module(tmp_path, "api/loader.py", """\
        def close_quietly(handle):
            try:
                handle.close()
            except (OSError, ValueError):
                pass
    """)
    ids = rule_ids(tmp_path)
    assert "REP402" not in ids and "REP403" not in ids


def test_rep403_flags_broad_handler_without_reraise(tmp_path):
    write_module(tmp_path, "serve/wrapper.py", """\
        def guard(fn):
            try:
                return fn()
            except Exception as exc:
                return {"error": str(exc)}
    """)
    assert "REP403" in rule_ids(tmp_path)


def test_rep403_clean_broad_handler_that_reraises(tmp_path):
    write_module(tmp_path, "serve/wrapper.py", """\
        def guard(fn, log):
            try:
                return fn()
            except Exception as exc:
                log(exc)
                raise
    """)
    ids = rule_ids(tmp_path)
    assert "REP403" not in ids and "REP402" not in ids


# --------------------------------------------------------------------------
# REP501 — persistence discipline


def _write_key_table(tmp_path):
    write_module(tmp_path, "api/persistence.py", """\
        HEADER_KEY_VERSIONS = {
            "format": 1,
            "format_version": 1,
            "spec": 1,
        }
    """)


def test_rep501_flags_unregistered_header_keys(tmp_path):
    _write_key_table(tmp_path)
    write_module(tmp_path, "api/writer.py", """\
        def build_header(spec):
            header = {"format_version": 1, "mystery": True, "spec": spec}
            header["novel"] = 2
            return header
    """)
    # One finding for the dict literal's "mystery", one for the
    # header["novel"] subscript store.
    assert rule_ids(tmp_path).count("REP501") == 2


def test_rep501_clean_registered_keys(tmp_path):
    _write_key_table(tmp_path)
    write_module(tmp_path, "api/writer.py", """\
        def build_header(spec):
            header = {"format_version": 1, "format": "repro-index"}
            header["spec"] = spec
            return header
    """)
    assert "REP501" not in rule_ids(tmp_path)


def test_rep501_ignores_dicts_without_format_version(tmp_path):
    _write_key_table(tmp_path)
    write_module(tmp_path, "api/writer.py", """\
        def to_dict():
            return {"anything": 1, "goes": 2}
    """)
    assert "REP501" not in rule_ids(tmp_path)


# --------------------------------------------------------------------------
# allow comments


def test_allow_comment_suppresses_on_same_line(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            assert k > 0  # repro: allow[REP401] fixture demonstrating suppression
            return k
    """)
    ids = rule_ids(tmp_path)
    assert "REP401" not in ids and ALLOW_WITHOUT_RATIONALE not in ids


def test_standalone_allow_comment_covers_next_code_line(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            # repro: allow[REP401] fixture: the standalone form covers
            # the next statement line.
            assert k > 0
            return k
    """)
    assert "REP401" not in rule_ids(tmp_path)


def test_wildcard_allow_comment(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            assert k > 0  # repro: allow[*] fixture for the wildcard form
            return k
    """)
    assert "REP401" not in rule_ids(tmp_path)


def test_allow_comment_without_rationale_is_a_finding(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            assert k > 0  # repro: allow[REP401]
            return k
    """)
    ids = rule_ids(tmp_path)
    # No rationale: the allow does not suppress, and is itself reported.
    assert ALLOW_WITHOUT_RATIONALE in ids
    assert "REP401" in ids


def test_allow_comment_for_other_rule_does_not_suppress(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            assert k > 0  # repro: allow[REP501] wrong rule id on purpose
            return k
    """)
    assert "REP401" in rule_ids(tmp_path)


def test_unparseable_file_reports_rep001(tmp_path):
    write_module(tmp_path, "api/broken.py", """\
        def broken(:
            pass
    """)
    assert PARSE_ERROR in rule_ids(tmp_path)


# --------------------------------------------------------------------------
# baseline


def _finding(rule_id, path, line):
    return Finding(path=path, line=line, col=0, rule_id=rule_id, message="m")


def test_baseline_round_trip(tmp_path):
    findings = [
        _finding("REP401", "a.py", 3),
        _finding("REP401", "a.py", 9),
        _finding("REP102", "b.py", 1),
    ]
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(baseline_path)
    loaded = Baseline.load(baseline_path)
    assert loaded.entries == {"REP401": {"a.py": 2}, "REP102": {"b.py": 1}}
    assert loaded.total() == 3
    assert loaded.allowance("REP401", "a.py") == 2
    assert loaded.allowance("REP401", "zzz.py") == 0


def test_apply_baseline_forgives_up_to_the_recorded_count():
    baseline = Baseline(entries={"REP401": {"a.py": 1}})
    findings = [
        _finding("REP401", "a.py", 3),
        _finding("REP401", "a.py", 9),   # beyond the allowance: survives
        _finding("REP401", "other.py", 1),  # different file: survives
    ]
    surviving = apply_baseline(findings, baseline)
    assert [(f.path, f.line) for f in surviving] == [("a.py", 9), ("other.py", 1)]


def test_apply_baseline_with_empty_baseline_keeps_everything():
    findings = [_finding("REP102", "a.py", 1)]
    assert apply_baseline(findings, Baseline()) == findings


def test_baseline_missing_file_is_empty(tmp_path):
    assert Baseline.load(tmp_path / "nope.json").entries == {}


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "entries": {}}))
    with pytest.raises(ValueError, match="version"):
        Baseline.load(path)


def test_baseline_rejects_malformed_json(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="unreadable"):
        Baseline.load(path)


# --------------------------------------------------------------------------
# CLI


def _violating_tree(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            assert k > 0
            return k
    """)
    return tmp_path


def _clean_tree(tmp_path):
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            if k <= 0:
                raise ValueError("k must be positive")
            return k
    """)
    return tmp_path


def test_cli_exit_zero_on_clean_tree(tmp_path):
    out = io.StringIO()
    assert check_main([str(_clean_tree(tmp_path))], out=out) == 0
    assert out.getvalue() == ""


def test_cli_exit_one_and_renders_findings(tmp_path):
    out = io.StringIO()
    assert check_main([str(_violating_tree(tmp_path))], out=out) == 1
    rendered = out.getvalue()
    assert "REP401" in rendered
    assert "1 finding" in rendered
    # path:line:col: RULE message
    assert "api/validate.py:2:" in rendered


def test_cli_rule_filter_selects_one_rule(tmp_path):
    _violating_tree(tmp_path)
    out = io.StringIO()
    # Filtering on an unrelated rule: the REP401 hit is not reported.
    assert check_main(
        [str(tmp_path), "--rule", "REP501"], out=out
    ) == 0
    assert check_main(
        [str(tmp_path), "--rule", "REP401"], out=io.StringIO()
    ) == 1


def test_cli_unknown_rule_is_a_usage_error(tmp_path, capsys):
    assert check_main([str(tmp_path), "--rule", "REP999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_missing_path_is_a_usage_error(tmp_path, capsys):
    assert check_main([str(tmp_path / "does-not-exist")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_update_baseline_requires_baseline(tmp_path, capsys):
    assert check_main([str(tmp_path), "--update-baseline"]) == 2
    assert "--baseline" in capsys.readouterr().err


def test_cli_baseline_workflow(tmp_path):
    _violating_tree(tmp_path)
    baseline_path = tmp_path / "baseline.json"

    # Record the current findings...
    assert check_main(
        [str(tmp_path), "--baseline", str(baseline_path), "--update-baseline"],
        out=io.StringIO(),
    ) == 0
    # ...after which the same tree passes against the baseline...
    assert check_main(
        [str(tmp_path), "--baseline", str(baseline_path)], out=io.StringIO()
    ) == 0

    # ...but a *new* hit in the same file still fails (counts cap growth).
    write_module(tmp_path, "api/validate.py", """\
        def check(k):
            assert k > 0
            assert k < 100
            return k
    """)
    out = io.StringIO()
    assert check_main(
        [str(tmp_path), "--baseline", str(baseline_path)], out=out
    ) == 1
    assert "REP401" in out.getvalue()


def test_cli_rejects_bad_baseline_file(tmp_path, capsys):
    _clean_tree(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({"version": 99}))
    assert check_main([str(tmp_path), "--baseline", str(baseline_path)]) == 2
    assert "baseline" in capsys.readouterr().err


def test_cli_list_rules(tmp_path):
    out = io.StringIO()
    assert check_main(["--list-rules"], out=out) == 0
    listing = out.getvalue()
    for rule_id in PROJECT_RULE_IDS:
        assert rule_id in listing


def test_repro_cli_routes_check_subcommand(tmp_path):
    from repro.cli import main as repro_main

    assert repro_main(["check", str(_clean_tree(tmp_path))]) == 0
    assert repro_main(["check", str(_violating_tree(tmp_path))]) == 1


# --------------------------------------------------------------------------
# the repo itself


def test_repo_sources_are_clean_at_head(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    code = check_main(
        ["src", "--baseline", ".repro-analysis-baseline.json"], out=out
    )
    assert code == 0, f"repro check src/ found:\n{out.getvalue()}"


def test_checked_in_baseline_is_empty():
    raw = json.loads(
        (REPO_ROOT / ".repro-analysis-baseline.json").read_text(encoding="utf-8")
    )
    assert raw == {"version": 1, "entries": {}}, (
        "the repo baseline must stay empty: justify deliberate violations "
        "with inline '# repro: allow[RULE] rationale' comments instead"
    )


def test_seeded_violation_fixture_fails_the_check(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    code = check_main(["tests/fixtures/analysis"], out=out)
    assert code == 1
    rendered = out.getvalue()
    # The fixture seeds at least these three rule ids.
    for rule_id in ("REP101", "REP102", "REP201"):
        assert rule_id in rendered


def test_python_m_repro_analysis_entry_point(monkeypatch):
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "tests/fixtures/analysis"],
        cwd=REPO_ROOT,
        env={**__import__("os").environ, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 1, completed.stderr
    assert "REP101" in completed.stdout


def test_mypy_gate_on_typed_packages():
    pytest.importorskip("mypy")
    completed = subprocess.run(
        [sys.executable, "-m", "mypy", "-p", "repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
