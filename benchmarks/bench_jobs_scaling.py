"""Jobs-scaling benchmark: one session fan-out vs per-panel pools.

Runs the multi-panel, multi-dataset ``xprod/cross-dataset-mga`` scenario
three ways at equal settings (``REPRO_BENCH_REPEATS`` consecutive runs per
arm, the shape of iterative figure work):

* ``jobs=1`` through the session engine (the serial reference);
* ``jobs=N`` through **one** :class:`~repro.engine.session.EngineSession` —
  all panels of every run in a single heterogeneous batch over one
  *persistent* pool, every graph shared-memory-exported once;
* ``jobs=N`` through the **per-panel-pool baseline**: each panel of each
  run as its own fan-out over a fresh process pool whose initializer ships
  the graph to every worker by pickle — the faithful pre-session
  architecture, paying pool startup and per-worker graph serialisation
  once per panel per run.

PRs 1-4 made the trials themselves cheap, so at ``--jobs N`` the dominant
remaining cost is exactly this per-panel orchestration overhead — which is
what the A/B isolates.  Asserts all arms are sha256-identical (the engine's
determinism guarantee), prints the wall-clocks and speedup, and records the
timings into ``benchmarks/BENCH_timings.json`` through the shared conftest
hook.  Wall-clock is only *asserted* with a generous margin — shared CI
runners are noisy; the recorded trajectory is the real measure.
"""

import hashlib
import json
import os
import time
from collections import OrderedDict

from concurrent.futures import ProcessPoolExecutor

from conftest import bench_config, emit, record_timing

from repro.engine.cache import NullCache
from repro.engine.kernels import execute_tasks_grouped
from repro.scenarios import get_scenario
from repro.scenarios.run import prepare_scenario, run_scenario

SCENARIO = "xprod/cross-dataset-mga"

#: Scale applied uniformly to every panel's dataset (the golden-fixture
#: scale: surrogates of 64-750 nodes), times REPRO_BENCH_SCALE.
BASE_SCALE = 0.02


def _sha256_of(gains):
    return hashlib.sha256(json.dumps([float(g) for g in gains]).encode("ascii")).hexdigest()


# Worker-side state of the legacy per-panel-pool architecture: the graph
# arrives pickled through the pool initializer, once per worker per pool.
_LEGACY_GRAPH = None
_LEGACY_LABELS = None


def _legacy_init(graph, labels):
    global _LEGACY_GRAPH, _LEGACY_LABELS
    _LEGACY_GRAPH = graph
    _LEGACY_LABELS = labels


def _legacy_run(task):
    # One task at a time, as the pre-session workers ran them.
    return execute_tasks_grouped([task], _LEGACY_GRAPH, _LEGACY_LABELS)[0]


def _bench_jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "4"))


def _config(jobs):
    multiplier = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return bench_config(
        "facebook", scale=min(1.0, BASE_SCALE * multiplier), jobs=jobs, cache=False
    )


def _repeats() -> int:
    return int(os.environ.get("REPRO_BENCH_REPEATS", "3"))


def _run_per_panel_pools(spec, prepared, jobs):
    """One full scenario pass through the pre-session architecture.

    One fan-out per panel, each over a fresh ProcessPoolExecutor whose
    initializer ships the panel's graph to every worker by pickle (what the
    engine did before graphs moved to shared memory and the pool became
    persistent).
    """
    graphs, labels, tasks = prepared
    panel_keys = {panel.figure: panel.key for panel in spec.panels}
    by_panel = OrderedDict()
    for index, task in enumerate(tasks):
        by_panel.setdefault(task.figure, []).append(index)
    gains = [None] * len(tasks)
    for figure, indices in by_panel.items():
        key = panel_keys[figure]
        panel_tasks = [tasks[i] for i in indices]
        workers = min(jobs, len(panel_tasks))
        chunksize = max(1, len(panel_tasks) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_legacy_init,
            initargs=(graphs[key], labels.get(key)),
        ) as pool:
            computed = list(pool.map(_legacy_run, panel_tasks, chunksize=chunksize))
        for i, gain in zip(indices, computed):
            gains[i] = gain
    return gains


def test_jobs_scaling():
    from repro.engine.session import EngineSession

    spec = get_scenario(SCENARIO)
    jobs = _bench_jobs()
    repeats = _repeats()

    # Every arm prepares (loads, labels, compiles) inside its timed loop, so
    # the three arms compare at equal settings.
    # -- session engine, jobs=1 (serial reference) ----------------------
    serial_config = _config(1)
    start = time.perf_counter()
    for _ in range(repeats):
        serial = run_scenario(spec, serial_config, cache=NullCache())
    serial_seconds = time.perf_counter() - start

    # -- session engine, jobs=N: one persistent pool, shared memory -----
    start = time.perf_counter()
    with EngineSession(jobs=jobs, cache=NullCache()) as session:
        for _ in range(repeats):
            session_result = run_scenario(
                spec, _config(jobs), cache=NullCache(), session=session
            )
    session_seconds = time.perf_counter() - start

    # -- per-panel-pool baseline, jobs=N --------------------------------
    start = time.perf_counter()
    for _ in range(repeats):
        prepared = prepare_scenario(spec, _config(jobs))
        baseline_gains = _run_per_panel_pools(spec, prepared, jobs)
    baseline_seconds = time.perf_counter() - start

    # -- identity: all three paths produce the same panels --------------
    digest = lambda result: _sha256_of(  # noqa: E731
        [g for sweep in result.panels.values() for curve in sweep.samples.values() for point in curve for g in point]
    )
    assert digest(session_result) == digest(serial), (
        "session jobs=N must be sha256-identical to jobs=1"
    )
    tasks = prepared.tasks
    session_gains = [
        g
        for sweep in serial.panels.values()
        for curve in sweep.samples.values()
        for point in curve
        for g in point
    ]
    assert sorted(map(float, baseline_gains)) == sorted(map(float, session_gains)), (
        "per-panel baseline diverged from the session engine"
    )

    speedup = baseline_seconds / session_seconds if session_seconds else float("inf")
    emit(
        "jobs_scaling",
        f"{SCENARIO} ({len(spec.panels)} panels, {len(tasks)} tasks, "
        f"jobs={jobs}, {repeats} runs per arm):\n"
        f"  session jobs=1          {serial_seconds:7.2f}s\n"
        f"  session jobs={jobs}          {session_seconds:7.2f}s\n"
        f"  per-panel pools jobs={jobs}  {baseline_seconds:7.2f}s\n"
        f"  session vs per-panel speedup: {speedup:.2f}x",
    )
    record_timing("bench_jobs_scaling/jobs1", serial_seconds)
    record_timing(f"bench_jobs_scaling/jobs{jobs}", session_seconds)
    record_timing(f"bench_jobs_scaling/per_panel_pools_jobs{jobs}", baseline_seconds)

    # Generous bound only — CI runners are noisy; the recorded trajectory in
    # BENCH_timings.json is where the >=1.3x target is tracked.
    assert session_seconds < baseline_seconds * 1.2, (
        f"session fan-out much slower than per-panel pools: "
        f"{session_seconds:.2f}s vs {baseline_seconds:.2f}s"
    )
