"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py parent.jsonl change.jsonl

A result set is the JSON-lines file ``run.py --out`` (or ``sweep.py --out``)
appends to.  For every workload and end-to-end metric present in both, the
table gives each side's median and quartiles over its untraced runs and a
verdict:

* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved`` — either side's interquartile spread, as a share of its
  median, is wider than the bound, and not every run of the change reads
  better than every run of the parent;
* ``better`` — every run of the change reads better than every run of the
  parent, or the median improved by more than the bound;
* ``unchanged`` — otherwise.

Runs whose result was not correct are counted and left out of the figures.
The exit status is 1 if any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from common import load_benchmark, quartiles, relative_spread


def load(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [values]}}`` of correct untraced runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    rejected = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        if not record["result"]["correct"]:
            rejected += 1
            continue
        metrics = values.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    if rejected:
        print(f"{path}: {rejected} incorrect run(s) left out")
    return values


def verdict(old: List[float], new: List[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    old_median = quartiles(old)["median"]
    new_median = quartiles(new)["median"]
    change = sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
    all_better = (
        max(new) < min(old) if lower_is_better else min(new) > max(old)
    )
    if change > bound:
        return "worse"
    if all_better:
        return "better"
    if max(relative_spread(old), relative_spread(new)) > bound:
        return "unresolved"
    if change < -bound:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="result set of the parent commit")
    parser.add_argument("change", type=Path, help="result set of the change")
    args = parser.parse_args(argv)
    metrics = {metric["name"]: metric for metric in load_benchmark()["end_to_end"]}
    old, new = load(args.parent), load(args.change)

    worse = False
    header = (f"{'workload':24s} {'metric':12s} {'n':>5s} "
              f"{'parent q1/median/q3':>28s} {'change q1/median/q3':>28s}  verdict")
    print(header)
    for workload in [name for name in old if name in new]:
        for name, metric in metrics.items():
            before, after = old[workload].get(name), new[workload].get(name)
            if not before or not after:
                continue
            result = verdict(before, after, metric["bound"], metric["better"] == "lower")
            worse |= result == "worse"
            a, b = quartiles(before), quartiles(after)
            print(
                f"{workload:24s} {name:12s} {len(before):>2d}/{len(after):<2d} "
                f"{a['q1']:8.4g} {a['median']:8.4g} {a['q3']:8.4g}   "
                f"{b['q1']:8.4g} {b['median']:8.4g} {b['q3']:8.4g}   "
                f"{result} (bound {metric['bound']:.0%})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
