"""One fresh benchmark process: set up a workload, optionally measure it.

Started by ``run.py``; prints one JSON object as its last stdout line.

``--mode setup`` times the set-up alone: from this process's first statement
(so importing ``repro`` counts) to the end of :meth:`Workload.setup`.
``--mode measure`` also repeats the measured step for ``--seconds``.  With
``--trace 1`` repetitions alternate untraced and traced; traced ones run
with the :mod:`layers` wrappers installed and a live ``repro`` tracer, and
the wrappers are removed again after each one.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    MIN_REPS,
    MIN_TRACE_PAIRS,
    SRC_DIR,
    gains_digest,
)

sys.path.insert(0, str(SRC_DIR))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC_DIR):
    raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC_DIR}")

from repro.telemetry.core import Tracer, set_tracer  # noqa: E402

from layers import TIMED_LAYERS, LayerProfiler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Program counters read after each traced repetition, by metric name.
COUNTERS = {
    "engine.kernel_batched": "kernel.batched",
    "engine.kernel_scalar": "kernel.scalar",
    "engine.cache_hit": "cache.hit",
    "engine.cache_miss": "cache.miss",
    "graph.delta_incremental": "delta.incremental",
    "graph.delta_fallback": "delta.fallback",
    "engine.shm_export_bytes": "shm.export_bytes",
    "engine.retries": "executor.retry",
}

#: Counts the wrappers keep themselves.
PROFILER_COUNTS = (
    "graph.pack_bytes",
    "graph.dispatch_packed",
    "graph.dispatch_sparse",
    "graph.stream_blocks",
)


def peak_rss_mb() -> float:
    """High-water RSS of this process and its reaped workers (ru_maxrss is KB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def traced_layers(profiler: LayerProfiler, tracer: Tracer, run_s: float, jobs: int) -> dict:
    """Per-layer figures of one traced repetition."""
    layers = {name: profiler.seconds.get(name, 0.0) for name in TIMED_LAYERS}
    for name in PROFILER_COUNTS:
        layers[name] = profiler.counts.get(name, 0)
    for name, counter in COUNTERS.items():
        layers[name] = tracer.counters.get(counter, 0)
    fan_out = sum(s.duration_ns for s in tracer.spans if s.name == "executor.fan_out") / 1e9
    chunks = sum(s.duration_ns for s in tracer.spans if s.name == "executor.chunk") / 1e9
    # Pool acquisition happens inside the fan-out span; keep the two apart.
    layers["engine.fanout_s"] = max(0.0, fan_out - layers["engine.pool_create_s"])
    layers["engine.worker_busy_share"] = chunks / (jobs * fan_out) if fan_out else 0.0
    kernel = layers["engine.kernel_batched"] + layers["engine.kernel_scalar"]
    layers["engine.batched_share"] = layers["engine.kernel_batched"] / kernel if kernel else 0.0
    attributed = sum(layers[name] for name in TIMED_LAYERS) + layers["engine.fanout_s"]
    layers["other_s"] = run_s - attributed
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--tmp", required=True, help="scratch directory for stores")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.tmp))
    profiler = None
    originals = {}
    if args.trace:
        profiler = LayerProfiler(workload.layer_groups, workload.layer_extras())
        originals = profiler.snapshot_originals()
        profiler.install()
    try:
        workload.setup()
    finally:
        if profiler is not None:
            profiler.uninstall()
    setup_s = time.perf_counter() - PROCESS_START
    report = {"mode": args.mode, "setup_s": setup_s, "jobs": workload.jobs}
    if profiler is not None:
        report["setup_layers"] = dict(profiler.seconds)
        profiler.reset()

    try:
        if args.mode == "measure":
            report.update(measure(workload, args, profiler))
            if profiler is not None:
                report["leftovers"] = profiler.leftovers(originals)
    finally:
        workload.close()
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


def measure(workload, args, profiler) -> dict:
    workload.prepare_check()
    plan = [False, True] if args.trace else [False]
    min_rounds = MIN_TRACE_PAIRS if args.trace else MIN_REPS
    runs = {False: [], True: []}
    digests = {False: set(), True: set()}
    traced = []
    attempted = failed = 0
    notes = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        rounds += 1
        for with_trace in plan:
            tracer = None
            workload.before_rep()
            # Garbage left by the previous repetition is not this one's cost.
            gc.collect()
            if with_trace:
                tracer = Tracer()
                previous = set_tracer(tracer)
                profiler.reset()
                profiler.install()
            try:
                start = time.perf_counter()
                result = workload.step()
                elapsed = time.perf_counter() - start
            except Exception:
                traceback.print_exc(file=sys.stderr)
                notes.append(f"step raised: {traceback.format_exc(limit=1).strip()}")
                attempted += 1
                failed += 1
                return dict(
                    runs=runs[False], traced_runs=runs[True], attempted=attempted,
                    failed=failed, digests=[], traced_digests=[], notes=notes,
                )
            finally:
                if with_trace:
                    profiler.uninstall()
                    set_tracer(previous)
                workload.after_rep()
            runs[with_trace].append(elapsed)
            digests[with_trace].add(gains_digest(result.values))
            attempted += result.operations
            failed += result.failed
            notes.extend(result.notes)
            if with_trace:
                traced.append(traced_layers(profiler, tracer, elapsed, workload.jobs))
    report = dict(
        runs=runs[False],
        traced_runs=runs[True],
        attempted=attempted,
        failed=failed,
        digests=sorted(digests[False]),
        traced_digests=sorted(digests[True]),
        notes=notes,
    )
    if traced:
        report["layers"] = {
            name: statistics.fmean(rep[name] for rep in traced) for name in traced[0]
        }
        report["traced_run_s"] = statistics.fmean(runs[True])
    return report


if __name__ == "__main__":
    sys.exit(main())
