"""Scenario-driven sweep benchmark (extension workloads).

Not a paper figure: this bench runs registered cross-product scenarios —
workloads the paper never measured — end to end through the declarative
scenario subsystem (spec -> compiled TrialTask batch -> engine), timing the
full pipeline and sanity-checking the aggregated curves.  It doubles as the
CI smoke test proving that a scenario outside the paper's fixed grid is one
registry lookup away.
"""

import numpy as np
import pytest
from conftest import bench_config, emit, record_timing

from repro.scenarios import get_scenario, run_scenario


@pytest.mark.parametrize(
    "name",
    ["xprod/protocol-duel-mga", "xprod/defense-matrix-mga"],
)
def test_scenario_sweep(benchmark, name):
    spec = get_scenario(name)
    config = bench_config(spec.dataset)

    result = benchmark.pedantic(
        run_scenario, args=(spec, config), rounds=1, iterations=1
    )

    emit(f"scenario_{name.replace('/', '__')}", result.format())
    sweep = result.sweep()
    assert list(sweep.values) == list(spec.values)
    for series, curve in sweep.series.items():
        assert len(curve) == len(spec.values)
        assert all(np.isfinite(g) for g in curve), series


def test_fig9_selects_incremental_path():
    """The fig09 workload takes the incremental after-view estimator.

    Runs the fig9 scenario through the shared-collection pipeline and
    asserts the incremental triangle path was actually selected (never
    silently falling back) on every after-run; the wall clock is recorded.
    Forces ``jobs=1``: the tracer's ``delta.*`` counters are process-local
    and would stay zero if trials ran in pool workers.
    """
    import time

    from repro.telemetry.core import Tracer, use_tracer

    spec = get_scenario("fig9")
    config = bench_config(spec.dataset, jobs=1)

    with use_tracer(Tracer()) as tracer:
        start = time.perf_counter()
        run_scenario(spec, config)
        seconds = time.perf_counter() - start
    stats = {
        key: tracer.counters.get(f"delta.{key}", 0)
        for key in ("incremental", "fallback")
    }

    record_timing("bench_scenarios/paired", seconds)
    emit(
        "fig9_incremental_path",
        f"fig09 workload ({spec.dataset}): {seconds:.2f}s\n"
        f"delta stats: {stats}",
    )
    assert stats["incremental"] > 0, "incremental estimator was never selected"
    assert stats["fallback"] == 0, "incremental estimator silently fell back"


def test_scenario_compile_overhead(benchmark):
    """Compiling a spec to its task batch is negligible next to running it."""
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.run import load_scenario_graph

    spec = get_scenario("fig12a")
    config = bench_config(spec.dataset)
    graph = load_scenario_graph(spec, config)

    tasks = benchmark(compile_scenario, spec, graph, config)
    assert len(tasks) == (2 + len(spec.values)) * config.trials
