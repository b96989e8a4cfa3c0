"""Constants and helpers shared by the benchmark entry point, its child processes
and the comparison tools.

Nothing here imports ``repro``: ``run.py`` stays light, so every cost of
importing the library lands in the child processes that measure it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import struct
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Directory of the benchmark's own files.
BENCH_DIR = Path(__file__).resolve().parent

#: Root of the checkout the benchmark measures (``src/repro`` lives under it).
ROOT = BENCH_DIR.parent

#: Library sources the child processes import.
SRC_DIR = ROOT / "src"

#: Scratch space for per-run result stores; emptied and removed after a run.
TMP_DIR = ROOT / ".perfbench_tmp"

#: Pinned output digests, one per (workload, seed).
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOAD_NAMES = (
    "cc-eps-gplus",
    "degree-defense-facebook",
    "resume-mixed-jobs2",
    "stream-collect-100k",
)

#: Fresh processes whose set-up time is measured per run (one of them also
#: runs the measured loop); ``setup_s`` is their median.
SETUP_RUNS = 3

#: Fewest measured repetitions of the step in an untraced run.
MIN_REPS = 3

#: Fewest (untraced, traced) repetition pairs in a traced run.
MIN_TRACE_PAIRS = 2

#: Wall-clock cap on one child process, seconds.
CHILD_TIMEOUT_S = 150

#: Largest share of ``run_s`` the traced run may leave unattributed on the
#: workloads that compute in-process.
MAX_OTHER_SHARE = 0.10

#: The benchmark's description: workloads, metrics, units and bounds.
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def load_benchmark() -> dict:
    """``BENCHMARK.json``, the one list of metric names, units and bounds."""
    return json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))


def refused_knobs(environ: Optional[Dict[str, str]] = None) -> List[str]:
    """Names of ``REPRO_*`` variables set in the environment.

    The benchmark measures the library's defaults, so any such knob makes it
    refuse to run.
    """
    environ = os.environ if environ is None else environ
    return sorted(name for name in environ if name.startswith("REPRO_"))


def gains_digest(values: Iterable[float]) -> str:
    """sha256 of per-task gains as little-endian float64, in batch order."""
    values = [float(value) for value in values]
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    """Pinned digests: ``{workload: {seed: sha256}}`` (empty if unpinned)."""
    try:
        return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def git_sha(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git_dir / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> Dict[str, object]:
    """Git sha, core count and interpreter/library versions of this host."""
    from importlib import metadata

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and first/third quartiles (``statistics.quantiles``, n=4)."""
    values = [float(value) for value in values]
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    stats = quartiles(values)
    if stats["median"] == 0:
        return 0.0 if stats["q3"] == stats["q1"] else float("inf")
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])
