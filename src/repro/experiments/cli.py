"""Command-line interface: regenerate any paper artifact or scenario.

Examples
--------
List everything that can be run::

    python -m repro list
    python -m repro scenario list

Regenerate Fig. 6 for the Facebook surrogate at a laptop-friendly scale
(every paper artifact command is an alias for ``scenario run <name>``)::

    python -m repro fig6 --dataset facebook --scale 0.2 --trials 2

Run a registered scenario (paper figure or cross-product extension) on four
worker processes::

    python -m repro scenario run xprod/protocol-duel-mga --jobs 4

Record / verify the golden regression fixtures under ``tests/golden``::

    python -m repro scenario record
    python -m repro scenario check
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.engine import integrity
from repro.engine.distributed import DEFAULT_LEASE_TTL, DistributedExecutor
from repro.engine.graph_store import GraphStore
from repro.engine.result_store import ShardedResultStore
from repro.experiments.config import ExperimentConfig
from repro.graph.datasets import (
    DATASETS,
    REAL_DATASETS,
    cached_dataset_path,
    dataset_statistics,
    fetch_dataset,
    known_dataset_names,
)
from repro.experiments.reporting import format_table
from repro.scenarios import golden as golden_store
from repro.scenarios.registry import SCENARIOS, get_scenario, scenario_names
from repro.scenarios.run import compile_batch, run_scenarios
from repro.telemetry import ProgressPrinter, RunManifest, Tracer
from repro.telemetry.core import current_tracer, use_tracer
from repro.telemetry.export import summarize_trace, write_trace

#: Paper artifacts.  Each is an alias: ``repro fig6 ...`` runs exactly
#: ``repro scenario run fig6 ...``.
ARTIFACTS = (
    "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12a", "fig12b", "fig13a", "fig13b", "fig14", "fig15",
)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The shared experiment knobs (Table III defaults + engine backends)."""
    parser.add_argument(
        "--dataset",
        default=None,
        choices=known_dataset_names(),
        help="dataset surrogate, or a fetched snap-* real dataset "
        "(default: the scenario's own dataset)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale in (0, 1]; default: the dataset's laptop scale",
    )
    parser.add_argument("--trials", type=int, default=2, help="trials per data point")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument("--epsilon", type=float, default=4.0, help="default privacy budget")
    parser.add_argument("--beta", type=float, default=0.05, help="fake-user fraction")
    parser.add_argument("--gamma", type=float, default=0.05, help="target fraction")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for trial execution (results are identical "
        "for any value; >1 fans the whole batch out over one persistent "
        "process pool with graphs in shared memory)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every trial instead of reusing the on-disk result "
        "cache (see REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="rounds a crashed/stalled parallel batch is retried before the "
        "failure propagates; only undelivered chunks re-run, results are "
        "bit-identical either way (default: %(default)s)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="seconds one round of in-flight worker chunks may stall before "
        "the pool is replaced and the round retried (default: no deadline)",
    )


def _add_scenario_run_options(parser: argparse.ArgumentParser) -> None:
    """Everything ``scenario run`` (and each artifact alias) accepts."""
    _add_run_options(parser)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record telemetry and write a JSONL trace (plus a sibling "
        ".manifest.json run manifest) to PATH; inspect it with "
        "'repro trace summarize PATH'",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print live per-panel progress to stderr while trials run",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="finish an interrupted sweep and print the reuse summary; "
        "every cached run already answers what any worker appended before "
        "dying as a cache hit and recomputes only what is missing, so the "
        "flag only adds the summary and rejects --no-cache (results are "
        "bit-identical to an uninterrupted run)",
    )


def _add_scenario_commands(subparsers) -> None:
    """The ``scenario`` subcommand family (list / run / record / check)."""
    scenario = subparsers.add_parser(
        "scenario",
        help="declarative scenarios: list, run, record or check goldens",
        description="Work with the declarative scenario catalog "
        "(repro.scenarios): paper figures and cross-product extensions "
        "alike compile to engine task batches and share the golden-result "
        "regression store under tests/golden/.",
    )
    actions = scenario.add_subparsers(dest="action", required=True)

    lister = actions.add_parser(
        "list",
        help="enumerate registered scenarios",
        description="List registered scenarios with their datasets, swept "
        "parameter and tags.  Paper artifacts keep their figure names; "
        "extensions live under xprod/.",
    )
    lister.add_argument("--tag", default="", help="only scenarios carrying this tag")
    lister.add_argument(
        "--extensions", action="store_true",
        help="only cross-product scenarios the paper never ran",
    )

    runner = actions.add_parser(
        "run",
        help="run one or more scenarios end to end and print their tables",
        description="Compile registered scenarios into ONE engine task "
        "batch, execute it (optionally parallel/cached) and print one table "
        "per panel.  Several names share a single execution session: every "
        "distinct dataset surrogate is loaded and shared-memory-exported "
        "once, and all trials fan out over one persistent worker pool.",
    )
    runner.add_argument(
        "names", nargs="+", metavar="name",
        help="registered scenario name(s) (see 'scenario list'); multiple "
        "names run as one batched fan-out",
    )
    _add_scenario_run_options(runner)

    recorder = actions.add_parser(
        "record",
        help="(re)write golden regression fixtures",
        description="Run scenarios at the small golden configuration "
        "(scale=0.02, trials=2, seed=0, cache off) and write their expected "
        "means/stderrs and task-batch hashes to tests/golden/*.json.  With "
        "no names, records every registered scenario.",
    )
    recorder.add_argument("names", nargs="*", help="scenario names (default: all)")
    recorder.add_argument(
        "--dir", default=None,
        help="fixture directory (default: tests/golden, or $REPRO_GOLDEN_DIR)",
    )
    recorder.add_argument(
        "--scale", type=float, default=golden_store.GOLDEN_CONFIG.scale,
        help="recording scale (default: %(default)s)",
    )
    recorder.add_argument(
        "--trials", type=int, default=golden_store.GOLDEN_CONFIG.trials,
        help="recording trials (default: %(default)s)",
    )
    recorder.add_argument(
        "--seed", type=int, default=golden_store.GOLDEN_CONFIG.seed,
        help="recording root seed (default: %(default)s)",
    )

    checker = actions.add_parser(
        "check",
        help="replay scenarios against their golden fixtures",
        description="Replay scenarios at each fixture's recorded "
        "configuration (cache disabled) and report any drift in task "
        "batches, means or standard errors.  Exit code 1 on mismatch.",
    )
    checker.add_argument("names", nargs="*", help="scenario names (default: all recorded)")
    checker.add_argument(
        "--dir", default=None,
        help="fixture directory (default: tests/golden, or $REPRO_GOLDEN_DIR)",
    )


def _add_worker_command(subparsers) -> None:
    """The ``worker`` subcommand: one process of a distributed fleet."""
    worker = subparsers.add_parser(
        "worker",
        help="join a distributed sweep: claim shard ranges, compute, exit",
        description="Run one worker of a distributed sweep.  Start any "
        "number of these — same host or many hosts sharing REPRO_CACHE_DIR "
        "— with identical scenario names and knobs: each claims "
        "content-hash shard ranges via lease files next to the result "
        "shards, computes them, appends to the shared store and exits when "
        "nothing is left to claim.  Crashed workers' leases expire and "
        "their unfinished ranges are reclaimed by survivors; a sweep "
        "interrupted entirely is finished by 'scenario run --resume'.  "
        "Results are bit-identical to a serial run for any fleet size, "
        "interleaving or crash pattern.",
    )
    worker.add_argument(
        "names", nargs="+", metavar="name",
        help="registered scenario name(s); every worker of one sweep must "
        "pass the same names and knobs",
    )
    _add_run_options(worker)
    worker.add_argument(
        "--worker-id", default=None,
        help="fleet-unique lease owner id (default: <hostname>:<pid>)",
    )
    worker.add_argument(
        "--ranges", type=int, default=16,
        help="shard ranges the task space is cut into — the unit of claim "
        "and of crash recovery (default: %(default)s, max 256)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds a lease's heartbeat may stand still before other "
        "workers reclaim its range (default: %(default)s)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="seconds between polls of ranges other workers own "
        "(default: %(default)s)",
    )


def _add_cache_commands(subparsers) -> None:
    """The ``cache`` subcommand family (verify / repair / gc / stats)."""
    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain the on-disk result store",
        description="Integrity tooling for the sharded result store: verify "
        "scans every shard line and reports corruption per shard; repair "
        "compacts shards (corrupt lines move to <root>/quarantine/ with a "
        "structured reason, superseded duplicates drop, last-writer-wins "
        "winners are preserved bit-identically); gc prunes expired leases "
        "and stale temp files; stats prints the same scan without failing "
        "on damage.  Run these between sweeps — a live append reads as a "
        "torn trailing line.  A cache root that is not a directory is an "
        "error (exit code 2).",
    )
    actions = cache.add_subparsers(dest="action", required=True)
    descriptions = {
        "verify": "Full-store integrity scan: parse and checksum-verify "
        "every shard line, count quarantined records.  Read-only.  Exit code 1 when any corrupt "
        "record is found.",
        "repair": "Rewrite damaged shards via write-temp+rename compaction: "
        "corrupt lines are quarantined with their reason, superseded "
        "duplicates dropped, surviving last-writer-wins entries preserved "
        "byte for byte.  Clean shards are left untouched.",
        "gc": "Prune dead weight: lease files and lease temp files whose "
        "mtime is older than --lease-ttl (a crashed worker's leftovers).",
        "stats": "Print the verify scan's summary (entries, checksummed vs "
        "unchecksummed lines, superseded duplicates, quarantine size) "
        "without treating damage as a failure.  Exit code 0 unless the "
        "cache root is missing.",
    }
    for name in ("verify", "repair", "gc", "stats"):
        action = actions.add_parser(
            name,
            help=descriptions[name].split(":")[0].lower(),
            description=descriptions[name],
        )
        action.add_argument(
            "--dir", default=None,
            help="cache root (default: $REPRO_CACHE_DIR or .repro_cache/)",
        )
        if name == "gc":
            action.add_argument(
                "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL,
                help="seconds a lease file may sit unmodified before gc "
                "treats it as a crashed worker's leftover "
                "(default: %(default)s)",
            )


def _add_dataset_commands(subparsers) -> None:
    """The ``dataset`` subcommand family (list / fetch / stats)."""
    dataset = subparsers.add_parser(
        "dataset",
        help="real-dataset cache: list, fetch once, print statistics",
        description="Manage the content-addressed real-dataset cache next "
        "to the result store (REPRO_CACHE_DIR): list shows every surrogate "
        "and snap-* real dataset with its cache state; fetch downloads (or "
        "ingests a local copy of) one SNAP edge list exactly once, "
        "checksum-verified; stats loads a dataset and prints its node/edge "
        "counts.  Fetched datasets plug into every experiment via "
        "--dataset snap-<name>.",
    )
    actions = dataset.add_subparsers(dest="action", required=True)

    actions.add_parser(
        "list",
        help="enumerate surrogates and real datasets with cache state",
        description="List every loadable dataset: the four deterministic "
        "surrogates (always available) and the four genuine SNAP releases "
        "with whether and where each is cached.",
    )

    fetcher = actions.add_parser(
        "fetch",
        help="download and cache one real dataset (idempotent)",
        description="Stream one SNAP edge list into the content-addressed "
        "cache: gzip is decompressed on the fly, the raw bytes are "
        "sha256-hashed (pinned on first fetch, verified on every load), "
        "node ids are remapped to dense codes and the parsed graph is "
        "published atomically.  Already-cached datasets return immediately "
        "unless --force.",
    )
    fetcher.add_argument("name", help="real dataset name (see 'dataset list')")
    fetcher.add_argument(
        "--source", default=None,
        help="local file or mirror URL standing in for the canonical SNAP "
        "URL — required in offline environments",
    )
    fetcher.add_argument(
        "--force", action="store_true",
        help="re-fetch even when a cache entry exists",
    )

    statser = actions.add_parser(
        "stats",
        help="load one dataset and print node/edge counts",
        description="Load a dataset (surrogate or fetched real release) and "
        "print its node count, edge count and average degree.",
    )
    statser.add_argument("name", help="dataset name (see 'dataset list')")
    statser.add_argument(
        "--scale", type=float, default=None,
        help="scale in (0, 1]; surrogates default to their laptop scale, "
        "real datasets to full size",
    )


def _add_trace_commands(subparsers) -> None:
    """The ``trace`` subcommand family (summarize)."""
    trace = subparsers.add_parser(
        "trace",
        help="inspect telemetry traces written by 'scenario run --trace'",
        description="Work with JSONL telemetry traces: summarize renders "
        "the top spans by total time, every counter total and the run "
        "manifest (if present next to the trace).",
    )
    actions = trace.add_subparsers(dest="action", required=True)
    summarizer = actions.add_parser(
        "summarize",
        help="print top-spans and counter tables for one trace file",
        description="Parse a trace JSONL file (tolerating torn lines) and "
        "print the top spans by total time, all counter totals and the "
        "sibling manifest's one-line summary.",
    )
    summarizer.add_argument("path", help="trace JSONL file to summarize")
    summarizer.add_argument(
        "--top", type=int, default=15,
        help="span names to show, by descending total time (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of 'Data Poisoning Attacks to "
        "LDP Protocols for Graphs' (ICDE 2025), or run declarative scenarios "
        "beyond the paper's grid.",
    )
    subparsers = parser.add_subparsers(dest="artifact", required=True)
    subparsers.add_parser("list", help="enumerate the paper artifacts and commands")
    for name in ARTIFACTS:
        artifact = subparsers.add_parser(
            name,
            help=f"alias for 'scenario run {name}'",
            description=f"{SCENARIOS.create(name).description}.  Runs exactly "
            f"'repro scenario run {name}' with the same options.",
        )
        _add_scenario_run_options(artifact)
    _add_scenario_commands(subparsers)
    _add_worker_command(subparsers)
    _add_cache_commands(subparsers)
    _add_dataset_commands(subparsers)
    _add_trace_commands(subparsers)
    return parser


def _config_from(args) -> ExperimentConfig:
    return ExperimentConfig(
        beta=args.beta, gamma=args.gamma, epsilon=args.epsilon,
        trials=args.trials, seed=args.seed, scale=args.scale,
        jobs=args.jobs, cache=not args.no_cache,
        max_retries=args.max_retries, task_timeout=args.task_timeout,
    )


def _scenario_list(args, out) -> int:
    names = scenario_names(paper=False if args.extensions else None, tag=args.tag)
    if not names:
        print("no scenarios match", file=out)
        return 1
    rows = []
    for name in names:
        spec = SCENARIOS.create(name)
        rows.append(
            [
                name,
                "paper" if spec.paper else "extension",
                spec.dataset if spec.kind == "sweep" else "-",
                spec.parameter if spec.kind == "sweep" else "-",
                spec.description,
            ]
        )
    print(
        format_table(
            ["scenario", "origin", "dataset", "sweeps", "description"],
            rows,
            title="registered scenarios",
        ),
        file=out,
    )
    return 0


def _scenario_run(args, out) -> int:
    specs = [get_scenario(name, dataset=args.dataset or "") for name in args.names]
    config = _config_from(args)

    # An explicit store instance (rather than letting the session build
    # one) so this function can report on it afterwards: resume reuse
    # counts, and — after a disk fault — exactly which results are
    # non-durable.  Every cached run answers stored results as hits, so
    # --resume changes no computation: it only rejects --no-cache and
    # prints the reuse line.
    if args.resume and args.no_cache:
        print("--resume replays the shared result store; it cannot be "
              "combined with --no-cache", file=out)
        return 2
    store: Optional[ShardedResultStore] = None
    if not args.no_cache:
        store = ShardedResultStore()

    # --trace/--progress install an explicit tracer for this run only;
    # without them the current tracer stays in charge (REPRO_TRACE still
    # promotes one process-wide, it just isn't exported to a file here).
    tracer: Optional[Tracer] = None
    if args.trace or args.progress:
        tracer = Tracer()
        if args.progress:
            tracer.add_callback(ProgressPrinter())

    started = time.perf_counter()
    with use_tracer(tracer) if tracer is not None else _current_tracer_scope():
        results = run_scenarios(specs, config, cache=store)
    if len(specs) == 1:
        blocks = [result.format() for result in results.values()]
    else:
        blocks = [
            f"=== {name} ===\n{result.format()}" for name, result in results.items()
        ]
    print("\n\n".join(blocks), file=out)
    if args.resume and store is not None:
        stats = store.stats()
        print(
            f"resume: reused {stats['hits']} stored results, "
            f"computed {stats['appends']} missing",
            file=out,
        )
    _warn_non_durable(store, out)

    if args.trace and tracer is not None:
        manifest = RunManifest.from_tracer(
            tracer,
            scenarios=[spec.name for spec in specs],
            config=dataclasses.asdict(config),
            wall_seconds=time.perf_counter() - started,
        )
        path = write_trace(tracer, args.trace, manifest=manifest)
        print(f"trace written to {path}", file=out)
    return 0


def _worker_run(args, out) -> int:
    """One process of a distributed fleet: claim, compute, append, exit."""
    if args.no_cache:
        print("worker mode computes into the shared result store; it cannot "
              "run with --no-cache", file=out)
        return 2
    specs = [get_scenario(name, dataset=args.dataset or "") for name in args.names]
    config = _config_from(args)
    store = ShardedResultStore()
    executor = DistributedExecutor(
        store,
        worker_id=args.worker_id,
        jobs=config.jobs,
        range_count=args.ranges,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
        max_retries=config.max_retries,
        task_timeout=config.task_timeout,
    )
    with GraphStore() as graphs:
        tasks_by_name = compile_batch(specs, config, graphs.add)
        batch = [task for tasks in tasks_by_name.values() for task in tasks]
        appended = executor.work(batch, graphs)
    stats = store.stats()
    print(
        f"worker {executor.worker_id}: appended {appended} of {len(batch)} "
        f"results ({stats['hits']} already stored); leases under "
        f"{store.root / 'leases'}",
        file=out,
    )
    _warn_non_durable(store, out)
    return 0


def _warn_non_durable(store: Optional[ShardedResultStore], out) -> None:
    """Tell the user exactly which results a disk fault kept in memory only."""
    if store is None or not store.non_durable_count:
        return
    print(
        f"WARNING: {store.non_durable_count} result(s) are NOT durable — a "
        f"disk fault (ENOSPC/EIO) interrupted appends to {store.root}. "
        "The printed tables are complete, but these results exist only in "
        "this process; free space and rerun with --resume to recompute and "
        "persist exactly the missing tasks:",
        file=out,
    )
    for payload in store.non_durable_tasks():
        print(
            f"  {payload['hash'][:16]} metric={payload.get('metric')} "
            f"attack={payload.get('attack')} seed={payload.get('seed')}",
            file=out,
        )


def _cache_run(args, out) -> int:
    """The ``cache verify|repair|gc|stats`` maintenance commands."""
    root = Path(args.dir) if args.dir else None
    try:
        if args.action == "repair":
            report = integrity.repair_store(root)
        elif args.action == "gc":
            report = integrity.gc_store(root, lease_ttl=args.lease_ttl)
        else:
            report = integrity.verify_store(root)
    except ValueError as error:
        print(error, file=out)
        return 2
    print(report.format(), file=out)
    # stats is the verify scan with an informational exit code.
    return 1 if args.action == "verify" and report.corrupt_total else 0


class _current_tracer_scope:
    """No-op stand-in for :class:`use_tracer` when no tracer is installed."""

    def __enter__(self):
        return current_tracer()

    def __exit__(self, *exc_info):
        pass


def _dataset_run(args, out) -> int:
    """The ``dataset list|fetch|stats`` cache commands."""
    if args.action == "list":
        rows = []
        for name in sorted(DATASETS):
            rows.append([name, "surrogate", "always available", DATASETS[name].description])
        for name in sorted(REAL_DATASETS):
            cached = cached_dataset_path(name)
            state = f"cached: {cached.parent}" if cached else "not fetched"
            rows.append([name, "real", state, REAL_DATASETS[name].description])
        print(
            format_table(
                ["dataset", "kind", "cache", "description"], rows, title="datasets"
            ),
            file=out,
        )
        return 0
    if args.action == "fetch":
        try:
            path = fetch_dataset(args.name, source=args.source, force=args.force)
        except (KeyError, RuntimeError, ValueError) as error:
            print(str(error).strip("'\""), file=out)
            return 1
        print(f"cached {args.name} -> {path.parent}", file=out)
        return 0
    # stats
    try:
        nodes, edges = dataset_statistics(args.name, scale=args.scale)
    except (KeyError, RuntimeError) as error:
        print(str(error).strip("'\""), file=out)
        return 1
    average = 2.0 * edges / nodes if nodes else 0.0
    print(
        format_table(
            ["dataset", "nodes", "edges", "avg degree"],
            [[args.name, nodes, edges, f"{average:.2f}"]],
            title="dataset statistics",
        ),
        file=out,
    )
    return 0


def _trace_summarize(args, out) -> int:
    path = Path(args.path)
    if not path.is_file():
        print(f"no trace file at {path}", file=out)
        return 1
    print(summarize_trace(path, top=args.top), file=out)
    return 0


def _scenario_record(args, out) -> int:
    names = list(args.names) or list(SCENARIOS)
    config = golden_store.GOLDEN_CONFIG.with_overrides(
        scale=args.scale, trials=args.trials, seed=args.seed
    )
    directory = Path(args.dir) if args.dir else None
    for name in names:
        path = golden_store.record_golden(SCENARIOS.create(name), config, directory)
        print(f"recorded {name} -> {path}", file=out)
    return 0


def _scenario_check(args, out) -> int:
    directory = Path(args.dir) if args.dir else None
    names = list(args.names)
    if not names:
        root = directory if directory is not None else golden_store.default_golden_dir()
        names = [
            name for name in SCENARIOS
            if golden_store.golden_path(name, root).is_file()
        ]
    if not names:
        print("no golden fixtures found; run 'scenario record' first", file=out)
        return 1
    failed = False
    for name in names:
        try:
            problems = golden_store.check_golden(SCENARIOS.create(name), directory)
        except FileNotFoundError:
            failed = True
            print(
                f"MISSING {name} — no golden fixture; run 'scenario record {name}'",
                file=out,
            )
            continue
        status = "ok" if not problems else "DRIFT"
        print(f"{status:<6} {name}", file=out)
        for problem in problems:
            failed = True
            print(f"       {problem}", file=out)
    return 1 if failed else 0


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)

    if args.artifact == "scenario":
        handler = {
            "list": _scenario_list,
            "run": _scenario_run,
            "record": _scenario_record,
            "check": _scenario_check,
        }[args.action]
        return handler(args, out)

    if args.artifact == "worker":
        return _worker_run(args, out)

    if args.artifact == "cache":
        return _cache_run(args, out)

    if args.artifact == "dataset":
        return _dataset_run(args, out)

    if args.artifact == "trace":
        return _trace_summarize(args, out)

    if args.artifact == "list":
        lines: List[str] = ["paper artifacts (each an alias for 'scenario run <name>'):"]
        for name in ARTIFACTS:
            lines.append(f"  {name:<12} {SCENARIOS.create(name).description}")
        lines.append("commands:")
        lines.append("  scenario     declarative scenarios (list/run/record/check)")
        lines.append("  worker       one process of a distributed sweep fleet")
        lines.append("  cache        result-store integrity (verify/repair/gc/stats)")
        lines.append("  dataset      real-dataset cache (list/fetch/stats)")
        lines.append("  trace        telemetry traces (summarize)")
        print("\n".join(lines), file=out)
        return 0

    args.names = [args.artifact]
    return _scenario_run(args, out)
