"""Command-line interface for the library.

The CLI exposes the three things a user most often wants to do without
writing code:

* ``python -m repro datasets`` — list the registered data-set surrogates.
* ``python -m repro search``  — build an index over a data set (registry
  surrogate or a file on disk) through the declarative ``repro.api``
  registry and answer random hyperplane queries through the engine's
  batched path (``--n-jobs`` / ``--executor`` control the worker pool, and
  every single-index registry family is available via ``--method`` — the
  composites and the MIPS adapter need programmatic configuration and stay
  library-only), printing recall and timing against the exact linear scan.
  ``--fast`` opts the tree indexes into the approximate fast mode
  (``exact=False``: float32 storage plus cross-query GEMM kernels).
* ``python -m repro cluster`` — serve a cluster directory (or split a
  saved partitioned payload into one with ``--out``) as a multi-process
  scatter-gather deployment: one shard server per manifest entry plus
  the router front end, whose gathered answers are bit-identical to the
  single-process partitioned index.
* ``python -m repro run <experiment>`` — regenerate one of the paper's
  tables or figures (``table2``, ``table3``, ``fig5`` ... ``fig11``,
  ``partitioned``, ``batch``) at the paper's configuration on a chosen
  workload (data sets, points, queries, seed), printing the records
  ``benchmarks/bench_paper_artefacts.py`` times and optionally writing
  JSON/CSV.
  ``run batch`` sweeps exact, budgeted and fast configurations and
  reports, per row, the execution path dispatched (``kernel``,
  ``fast-gemm``, or ``per-query`` for indexes without a batch kernel).

Every command is deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import __version__
from repro.api import IndexSpec, SearchOptions, build_index, describe_index
from repro.api.specs import normalize_kind
from repro.datasets import load_dataset, random_hyperplane_queries
from repro.datasets.io import load_points
from repro.datasets.registry import DATASETS, available_datasets
from repro.eval.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
)
from repro.eval.plots import records_to_csv
from repro.eval.reporting import render_table, save_json
from repro.eval.runner import evaluate_index

#: CLI method names (historic spellings kept) -> registry kinds; every
#: index is built declaratively through ``repro.api.build_index``.
LEGACY_METHOD_KINDS = {"linear": "linear_scan"}

METHOD_CHOICES = (
    "bc-tree", "ball-tree", "kd-tree", "rp-tree", "linear",
    "nh", "fh", "bh", "mh", "ah", "eh",
)


def method_spec(args) -> IndexSpec:
    """The declarative :class:`IndexSpec` for the CLI's ``--method`` flags."""
    kind = normalize_kind(LEGACY_METHOD_KINDS.get(args.method, args.method))
    if kind in ("ball_tree", "bc_tree", "rp_tree"):
        params = {"leaf_size": args.leaf_size, "random_state": args.seed}
    elif kind == "kd_tree":
        params = {"leaf_size": args.leaf_size}
    elif kind in ("nh", "fh", "bh", "mh", "ah", "eh"):
        params = {"num_tables": args.num_tables, "random_state": args.seed}
    else:  # linear_scan
        params = {}
    storage = getattr(args, "storage", None)
    if storage is not None and kind in (
        "ball_tree", "bc_tree", "rp_tree", "kd_tree",
    ):
        params["storage"] = storage
    budget = getattr(args, "memory_budget_mb", None)
    if budget is not None and kind in (
        "ball_tree", "bc_tree", "rp_tree", "kd_tree",
    ):
        return IndexSpec(kind, params, memory_budget_mb=budget)
    return IndexSpec(kind, params)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Ball-Tree / BC-Tree point-to-hyperplane nearest neighbor search "
            "(ICDE 2023 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    datasets_parser = subparsers.add_parser(
        "datasets", help="list the registered data-set surrogates"
    )
    datasets_parser.add_argument(
        "--include-large-scale",
        action="store_true",
        help="include the Deep100M / Sift100M surrogates in the listing",
    )

    search_parser = subparsers.add_parser(
        "search", help="build an index and answer random hyperplane queries"
    )
    search_parser.add_argument(
        "--dataset",
        default="Cifar-10",
        help="registry data-set name (default: Cifar-10)",
    )
    search_parser.add_argument(
        "--data-file",
        default=None,
        help="load points from a file (.fvecs/.bvecs/.npy/.csv) instead of the registry",
    )
    search_parser.add_argument(
        "--method",
        default="bc-tree",
        choices=sorted(METHOD_CHOICES),
        help="index to build (default: bc-tree)",
    )
    search_parser.add_argument("--num-points", type=int, default=4000)
    search_parser.add_argument("--num-queries", type=int, default=10)
    search_parser.add_argument("--k", type=int, default=10)
    search_parser.add_argument("--leaf-size", type=int, default=100)
    search_parser.add_argument("--num-tables", type=int, default=32)
    search_parser.add_argument(
        "--candidate-fraction",
        type=float,
        default=None,
        help="approximate search budget for the tree indexes",
    )
    search_parser.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        help="absolute candidate budget (alternative to --candidate-fraction)",
    )
    search_parser.add_argument(
        "--fast",
        action="store_true",
        help=(
            "run the approximate fast mode (exact=False): float32 storage "
            "with cross-query GEMM kernels; tree indexes only"
        ),
    )
    search_parser.add_argument(
        "--storage",
        default=None,
        choices=("ram", "float32", "mmap", "mmap32"),
        help=(
            "point-array storage backend for the tree indexes "
            "(default: resident float64; 'mmap' serves the leaf-ordered "
            "copy from memory-mapped .npy files)"
        ),
    )
    search_parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help=(
            "build the index with the memory-bounded chunked path "
            "(out-of-core fit_chunked) under this row-memory budget in MiB; "
            "tree indexes only"
        ),
    )
    search_parser.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="worker-pool size for batched query execution (default: inline)",
    )
    search_parser.add_argument(
        "--executor",
        default="thread",
        choices=("thread", "process"),
        help="worker-pool flavor for batched execution (default: thread)",
    )
    search_parser.add_argument("--seed", type=int, default=0)

    info_parser = subparsers.add_parser(
        "info",
        help="describe a saved index from its header (no arrays loaded)",
    )
    info_parser.add_argument("path", help="path to a saved index payload")

    run_parser = subparsers.add_parser(
        "run", help="regenerate one of the paper's tables or figures"
    )
    run_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="experiment id (table2, table3, fig5 ... fig11, partitioned, batch)",
    )
    run_parser.add_argument(
        "--datasets",
        default=None,
        help=(
            "comma-separated data-set names (default: a representative "
            "subset; table2, fig9 and fig10 fix their own)"
        ),
    )
    run_parser.add_argument("--num-points", type=int, default=4000)
    run_parser.add_argument("--num-queries", type=int, default=20)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--json", default=None, help="write records to a JSON file")
    run_parser.add_argument("--csv", default=None, help="write records to a CSV file")

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "serve a saved index over HTTP with query coalescing "
            "(POST /search, GET /healthz, GET /stats)"
        ),
    )
    serve_parser.add_argument("path", help="path to a saved index payload")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 asks the OS for an ephemeral port (default: 8080)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most queries per coalesced flush; 1 disables coalescing (default: 64)",
    )
    serve_parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="accepted for compatibility; no effect (queries flush as soon "
        "as the compute thread is free)",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        help="most queries queued before arrivals get HTTP 429 (default: 1024)",
    )
    serve_parser.add_argument(
        "--timeout-ms",
        type=float,
        default=10_000.0,
        help="per-request deadline before HTTP 504 (default: 10000)",
    )
    serve_parser.add_argument(
        "--k", type=int, default=10,
        help="default top-k when a request names none (default: 10)",
    )
    serve_parser.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="worker-pool size of the serving session (default: inline)",
    )
    serve_parser.add_argument(
        "--executor",
        default="thread",
        choices=("thread", "process"),
        help="worker-pool flavor of the serving session (default: thread)",
    )

    cluster_parser = subparsers.add_parser(
        "cluster",
        help=(
            "serve a cluster directory (or split a partitioned payload "
            "into one) behind a scatter-gather router"
        ),
    )
    cluster_parser.add_argument(
        "path",
        help=(
            "a cluster directory (holding manifest.json) to serve, or a "
            "saved PartitionedP2HIndex payload to split first"
        ),
    )
    cluster_parser.add_argument(
        "--out",
        default=None,
        help=(
            "destination directory when splitting a payload "
            "(default: <payload>.cluster)"
        ),
    )
    cluster_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "expected shard count; refused if it disagrees with the "
            "payload/manifest (shard count is data-defined, not a resize)"
        ),
    )
    cluster_parser.add_argument(
        "--ports",
        default=None,
        help="comma-separated shard ports, one per shard (default: ephemeral)",
    )
    cluster_parser.add_argument(
        "--router-port",
        type=int,
        default=None,
        help="router bind port; 0 asks the OS for an ephemeral port",
    )
    cluster_parser.add_argument(
        "--host",
        default=None,
        help="interface the shard and router sockets bind (default: spec's)",
    )
    cluster_parser.add_argument(
        "--mode",
        default="process",
        choices=("process", "thread"),
        help=(
            "shard isolation: one spawned process per shard, or threads "
            "in this process for cheap smoke runs (default: process)"
        ),
    )
    cluster_parser.add_argument(
        "--split-only",
        action="store_true",
        help="split the payload into a cluster directory and exit",
    )

    # Listed here only so `repro --help` mentions it; the real option
    # surface lives in repro.analysis.cli and main() dispatches to it
    # before this parser ever sees the command line.
    subparsers.add_parser(
        "check",
        help="run the project's static-analysis rules (repro check --help)",
        add_help=False,
    )

    return parser


# ----------------------------------------------------------------- commands


def _cmd_datasets(args) -> int:
    names = available_datasets(include_large_scale=args.include_large_scale)
    records = []
    for name in names:
        spec = DATASETS[name]
        records.append(
            {
                "dataset": spec.name,
                "paper_n": spec.paper_points,
                "d": spec.paper_dim,
                "data_type": spec.data_type,
                "surrogate_n": spec.surrogate_points,
                "generator": spec.generator,
            }
        )
    print(
        render_table(
            records,
            ["dataset", "paper_n", "d", "data_type", "surrogate_n", "generator"],
            title="Registered data sets (Table II)",
        )
    )
    return 0


def _cmd_search(args) -> int:
    if args.data_file:
        points = load_points(args.data_file, max_vectors=args.num_points)
        dataset_name = args.data_file
    else:
        dataset = load_dataset(args.dataset, num_points=args.num_points)
        points = dataset.points
        dataset_name = dataset.name
    queries = random_hyperplane_queries(points, args.num_queries, rng=args.seed + 2023)

    spec = method_spec(args)
    index = build_index(spec)
    budget_kinds = ("ball_tree", "bc_tree", "kd_tree", "rp_tree")
    budget_given = (
        args.candidate_fraction is not None or args.max_candidates is not None
    )
    if budget_given and spec.kind not in budget_kinds:
        # Refuse rather than silently running exact search: a dropped
        # budget flag would mislabel every number the command prints.
        print(
            f"invalid search options: --candidate-fraction/--max-candidates "
            f"apply to the tree indexes only, not {args.method!r}",
            file=sys.stderr,
        )
        return 2
    if args.memory_budget_mb is not None and spec.kind not in budget_kinds:
        # Same refusal contract as --storage: only the tree families have
        # a chunked build, and silently dropping the budget would mislabel
        # the build path of everything the command prints.
        print(
            f"invalid search options: --memory-budget-mb applies to the "
            f"tree indexes only, not {args.method!r}",
            file=sys.stderr,
        )
        return 2
    if args.storage is not None and spec.kind not in budget_kinds:
        # Same refusal contract as --fast: only the tree families take the
        # storage knob through the CLI, and silently dropping it would
        # mislabel the memory behavior of everything the command prints.
        print(
            f"invalid search options: --storage applies to the tree "
            f"indexes only, not {args.method!r}",
            file=sys.stderr,
        )
        return 2
    if args.fast and spec.kind not in budget_kinds:
        # Same refusal contract as the budget flags: only the tree
        # families have a fast kernel, and a silently-dropped --fast would
        # mislabel every timing the command prints as a fast-mode number.
        print(
            f"invalid search options: --fast applies to the tree indexes "
            f"only, not {args.method!r}",
            file=sys.stderr,
        )
        return 2
    try:
        options = SearchOptions(
            k=args.k,
            candidate_fraction=args.candidate_fraction,
            max_candidates=args.max_candidates,
            n_jobs=args.n_jobs,
            executor=args.executor,
            exact=not args.fast,
        )
    except (TypeError, ValueError) as exc:
        print(f"invalid search options: {exc}", file=sys.stderr)
        return 2

    evaluation = evaluate_index(
        index,
        points,
        queries,
        args.k,
        method_name=args.method,
        dataset_name=dataset_name,
        options=options,
    )
    record = evaluation.as_record()
    columns = [
        "method",
        "dataset",
        "k",
        "recall",
        "avg_query_ms",
        "indexing_seconds",
        "index_size_mb",
    ]
    print(render_table([record], columns, title="Search evaluation"))
    return 0


def _cmd_info(args) -> int:
    try:
        description = describe_index(args.path)
    except FileNotFoundError:
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot describe index: {exc}", file=sys.stderr)
        return 2
    record = description.to_dict()
    spec = record.pop("spec", None)
    storage = record.pop("storage", None) or {}
    record["storage_backend"] = storage.get("backend")
    record["params"] = (
        None if spec is None else ", ".join(
            f"{key}={value}" for key, value in sorted(spec["params"].items())
        ) or "-"
    )
    columns = [
        "path",
        "format_version",
        "kind",
        "params",
        "num_shards",
        "storage_backend",
        "storage_dtype",
        "payload_bytes",
        "sidecar_bytes",
    ]
    print(render_table([record], columns, title="Saved index"))
    return 0


def _cmd_run(args) -> int:
    datasets: Optional[Sequence[str]] = None
    if args.datasets:
        datasets = tuple(
            name.strip() for name in args.datasets.split(",") if name.strip()
        )
    config = ExperimentConfig(
        datasets=datasets or ExperimentConfig().datasets,
        num_points=args.num_points,
        num_queries=args.num_queries,
        seed=args.seed,
    )
    output = run_experiment(args.experiment, config)
    print(render_table(output.records, output.columns, title=output.title))
    if args.json:
        save_json(output.records, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        records_to_csv(output.records, output.columns, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_serve(args) -> int:
    # Imported here (not module top) so `repro search`/`repro run` never
    # pay for the serving stack.
    from repro.api import Searcher, load_index
    from repro.serve import ServeConfig, run_server

    try:
        index = load_index(args.path)
    except FileNotFoundError:
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot load index: {exc}", file=sys.stderr)
        return 2
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue_depth=args.queue_depth,
            request_timeout_ms=args.timeout_ms,
        )
        options = SearchOptions(k=args.k, n_jobs=args.n_jobs, executor=args.executor)
    except (TypeError, ValueError) as exc:
        print(f"invalid serve options: {exc}", file=sys.stderr)
        return 2

    def announce(server) -> None:
        mode = (
            f"coalescing (max_batch={config.max_batch})"
            if config.coalescing else "per-query (coalescing off)"
        )
        print(
            f"serving {type(index).__name__} from {args.path} on "
            f"http://{config.host}:{server.port} [{mode}] — Ctrl-C to stop",
            flush=True,
        )

    with Searcher(index, options) as searcher:
        run_server(searcher, config, on_start=announce)
    return 0


def _cmd_cluster(args) -> int:
    # Imported here (not module top) so the other commands never pay for
    # the cluster stack.
    import dataclasses
    import threading
    from pathlib import Path

    from repro.cluster import (
        ClusterManager,
        read_manifest,
        split_partitioned_payload,
        write_manifest,
    )
    from repro.cluster.manifest import MANIFEST_NAME

    path = Path(args.path)
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.router_port is not None:
        overrides["router_port"] = args.router_port
    if args.ports is not None:
        try:
            overrides["shard_ports"] = tuple(
                int(part) for part in args.ports.split(",") if part.strip()
            )
        except ValueError:
            print(f"invalid --ports value: {args.ports!r}", file=sys.stderr)
            return 2

    split = not (path.is_dir() or path.name == MANIFEST_NAME)
    try:
        if split:
            out_dir = Path(args.out) if args.out else Path(f"{path}.cluster")
            manifest = split_partitioned_payload(path, out_dir)
            print(
                f"split {path} into {manifest.spec.num_shards} shard "
                f"payload(s) under {manifest.directory}"
            )
        else:
            manifest = read_manifest(path)
    except FileNotFoundError as exc:
        message = str(exc) if exc.filename is None else f"no such file: {path}"
        print(message, file=sys.stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"cannot open cluster: {exc}", file=sys.stderr)
        return 2

    if args.shards is not None and args.shards != manifest.spec.num_shards:
        print(
            f"--shards {args.shards} disagrees with {manifest.directory} "
            f"(num_shards={manifest.spec.num_shards}); the shard count is "
            "fixed by the data — rebuild the cluster directory to change it",
            file=sys.stderr,
        )
        return 2

    if overrides:
        try:
            spec = dataclasses.replace(manifest.spec, **overrides)
        except (TypeError, ValueError) as exc:
            print(f"invalid cluster options: {exc}", file=sys.stderr)
            return 2
        manifest = dataclasses.replace(manifest, spec=spec)
        if split:
            # A directory this run created records the requested topology,
            # so a later `repro cluster <dir>` reuses it flag-free.  An
            # existing directory is never rewritten: the overrides apply
            # to this serve only.
            write_manifest(
                manifest.directory,
                spec,
                [entry.load_point_ids() for entry in manifest.shards],
            )

    if args.split_only:
        print(f"cluster directory ready: {manifest.directory}")
        return 0

    spec = manifest.spec
    try:
        with ClusterManager(manifest, mode=args.mode) as cluster:
            print(
                f"cluster of {spec.num_shards} shard(s) "
                f"[{spec.index.kind}, mode={args.mode}] from "
                f"{manifest.directory} routing on "
                f"http://{spec.host}:{cluster.router_port} — Ctrl-C to stop",
                flush=True,
            )
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                print("shutting down", flush=True)
    except RuntimeError as exc:
        print(f"cluster failed to start: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["check"]:
        # Static analysis owns its own option surface; hand the rest of
        # the command line straight to repro.analysis.
        from repro.analysis.cli import main as check_main

        return check_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
