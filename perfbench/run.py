"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cc-eps-gplus --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics (``run_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer metrics.
Set-up is timed in fresh processes (``SETUP_RUNS`` of them, median); the
measured step is repeated in one of them for ``--seconds`` (median).  The
last stdout line is the JSON result; ``--out FILE`` also appends a record
with the host details to a JSON-lines result set for ``compare.py``.

Outputs are checked: every repetition's per-task gains (the degree vector
for the streaming workload) must hash to one digest, the pinned one in
``digests.json`` where the seed is pinned; gains must be finite; traced and
untraced repetitions must agree.  The benchmark refuses to run while any
``REPRO_*`` variable is set, and fails if shared-memory segments or scratch
stores are left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from common import (
    BENCH_DIR,
    CHILD_TIMEOUT_S,
    MAX_OTHER_SHARE,
    ROOT,
    SETUP_RUNS,
    SRC_DIR,
    TMP_DIR,
    WORKLOAD_NAMES,
    host_info,
    load_benchmark,
    load_digests,
    refused_knobs,
)

SHM_DIR = Path("/dev/shm")


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, tmp: Path) -> dict:
    """Run ``child.py`` in a fresh process group; its last stdout line."""
    command = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--tmp", str(tmp),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"{mode} child exceeded {CHILD_TIMEOUT_S}s")
    finally:
        # Anything the child left in its group (pool workers) goes too.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {process.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ChildFailed(f"{mode} child printed no result")
    return json.loads(lines[-1])


def shm_entries() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def check_outputs(args, measured: dict, problems: list) -> None:
    """Digest agreement across repetitions, traced runs and the pin."""
    digests = set(measured["digests"]) | set(measured["traced_digests"])
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {sorted(digests)}")
    if args.trace and set(measured["traced_digests"]) != set(measured["digests"]):
        problems.append("traced digest differs from the untraced one")
    pinned = load_digests().get(args.workload, {}).get(str(args.seed))
    if pinned is not None and digests != {pinned}:
        problems.append(f"digest {sorted(digests)} != pinned {pinned}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append a record to this JSON-lines file")
    args = parser.parse_args(argv)

    knobs = refused_knobs()
    if knobs:
        print(f"refusing to run with {', '.join(knobs)} set: the benchmark "
              "measures the defaults", file=sys.stderr)
        return 2
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no library sources under {SRC_DIR}", file=sys.stderr)
        return 2

    spec = load_benchmark()
    shm_before = shm_entries()
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_DIR))
    problems: list = []
    try:
        setups, peaks = [], []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                report = run_child(args, "setup", tmp)
                setups.append(report["setup_s"])
                peaks.append(report["peak_rss_mb"])
        measured = run_child(args, "measure", tmp)
        setups.append(measured["setup_s"])
        peaks.append(measured["peak_rss_mb"])
        left = sorted(path.name for path in tmp.iterdir())
        if left:
            problems.append(f"scratch stores left behind: {left}")
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left in {SHM_DIR}: {leaked}")

    problems.extend(measured["notes"])
    check_outputs(args, measured, problems)
    if args.trace:
        layers = measured.get("layers")
        if layers is None:
            problems.append("no traced repetition completed")
            layers = {}
        if measured.get("leftovers"):
            problems.append(f"wrappers not removed: {measured['leftovers']}")
        setup_layers = measured.get("setup_layers", {})
        metrics = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name in ("scenarios.compile_s", "graph.dataset_s"):
                value = setup_layers.get(name, 0.0)  # the cold, set-up call
            elif name == "trace_overhead":
                value = (statistics.median(measured["traced_runs"])
                         / statistics.median(measured["runs"]) - 1.0) if layers else 0.0
            else:
                value = layers.get(name, 0.0)
            metrics[name] = {"value": value, "unit": metric["unit"]}
        # The other_s check applies where all compute runs in the measuring
        # process; a pooled workload computes in its workers.
        if layers and measured["jobs"] == 1:
            share = layers["other_s"] / measured["traced_run_s"]
            if share > MAX_OTHER_SHARE:
                problems.append(f"other_s is {share:.1%} of the traced run_s")
        print(f"# trace_overhead {metrics['trace_overhead']['value']:+.2%}")
    else:
        values = {
            "run_s": statistics.median(measured["runs"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(peaks),
        }
        metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                   for metric in spec["end_to_end"]}

    attempted = max(1, int(measured["attempted"]))
    failed = attempted if problems else int(measured["failed"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    host = host_info()
    print(f"# host {json.dumps(host)}")
    print(f"# samples run_s={measured['runs']} setup_s={setups}")
    if args.out is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "host": host, "result": result,
            "samples": {"run_s": measured["runs"], "setup_s": setups},
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
