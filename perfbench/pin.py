"""Pin (or re-verify) the output digests the benchmark checks runs against.

Run from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-31              # compute and record
    python3 perfbench/pin.py --seeds 0-3 --verify      # recompute, compare

For each workload and seed this runs the workload's set-up and one measured
step in this process and records the sha256 of its per-task gains (the
perturbed-degree vector for the streaming workload) in ``digests.json``.
For ``resume-mixed-jobs2`` it also runs the same batch in-process at
``jobs = 1`` without any store and requires the same digest, so the pooled,
store-resumed run is pinned to the serial answer.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from common import DIGESTS_PATH, SRC_DIR, TMP_DIR, WORKLOAD_NAMES, gains_digest, load_digests
from sweep import parse_seeds

sys.path.insert(0, str(SRC_DIR))

from workloads import WORKLOADS, ResumeMixedJobs2  # noqa: E402


def digest_of(name: str, seed: int, tmp: Path) -> str:
    workload = WORKLOADS[name](seed, tmp)
    workload.setup()
    try:
        workload.prepare_check()
        workload.before_rep()
        try:
            result = workload.step()
        finally:
            workload.after_rep()
        if result.failed:
            raise SystemExit(f"{name} seed {seed}: {result.failed} failed, {result.notes}")
        digest = gains_digest(result.values)
        if isinstance(workload, ResumeMixedJobs2):
            serial = workload.run_batch(workload.specs, workload.config(jobs=1))
            if gains_digest(serial) != digest:
                raise SystemExit(f"{name} seed {seed}: jobs=2 resume differs from jobs=1")
    finally:
        workload.close()
    return digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-31")
    parser.add_argument("--verify", action="store_true",
                        help="compare with the recorded digests instead of writing")
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workloads == "all" else args.workloads.split(",")

    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=TMP_DIR))
    pins = load_digests()
    mismatches = 0
    try:
        for name in names:
            for seed in parse_seeds(args.seeds):
                digest = digest_of(name, seed, tmp)
                recorded = pins.get(name, {}).get(str(seed))
                if args.verify:
                    ok = recorded is None or recorded == digest
                    mismatches += not ok
                    print(f"{name} seed {seed}: {digest} "
                          f"{'ok' if ok else f'!= pinned {recorded}'}", flush=True)
                    continue
                pins.setdefault(name, {})[str(seed)] = digest
                print(f"{name} seed {seed}: {digest}", flush=True)
                DIGESTS_PATH.write_text(
                    json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
                )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
