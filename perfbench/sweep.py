"""Run the benchmark over several seeds and summarise the spread.

Run from the root of a checkout::

    python3 perfbench/sweep.py --seeds 0-9 --out results.jsonl
    python3 perfbench/sweep.py --workloads stream-collect-100k --seeds 0-4

Each (workload, seed) is one ``run.py`` invocation, run one after another;
records are appended to ``--out`` (a result set for ``compare.py``).  The
summary gives, per workload and end-to-end metric, the median, quartiles and
interquartile spread as a share of the median — next to the metric's bound
from ``BENCHMARK.json``, and whether the spread is within a third of it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, ROOT, WORKLOAD_NAMES, load_benchmark, quartiles, relative_spread


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv=None) -> int:
    spec = load_benchmark()
    bound_of = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or 'all'")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result set to append to")
    args = parser.parse_args(argv)
    workloads = WORKLOAD_NAMES if args.workloads == "all" else args.workloads.split(",")
    out = args.out
    if out is None:
        out = Path(tempfile.mkstemp(prefix="perfbench-", suffix=".jsonl")[1])

    failures = 0
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            command = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out),
            ]
            completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {completed.returncode}")
                failures += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failures += 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
                if name in bound_of or args.trace
            ), flush=True)
        for name, samples in values.items():
            if name not in bound_of:
                continue
            stats = quartiles(samples)
            spread = relative_spread(samples)
            bound = bound_of[name]
            verdict = "steady" if spread < bound / 3 else "UNSTEADY"
            print(f"  {workload:24s} {name:12s} median={stats['median']:.4g} "
                  f"q1={stats['q1']:.4g} q3={stats['q3']:.4g} "
                  f"spread={spread:.2%} bound={bound:.0%} {verdict}")
    print(f"records in {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
