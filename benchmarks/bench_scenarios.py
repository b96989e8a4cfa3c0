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


def test_fig9_counts_triangles_at_targets(monkeypatch):
    """The fig09 workload counts clustering triangles at the targets only,
    and each paired run holds only the honest plane and the attacker's edit.

    Runs the fig9 scenario through the shared-collection pipeline and
    asserts that both views of every task took the target-restricted count
    (``triangles.at_nodes`` on the trace), that no full triangle sweep ran
    on any backend, that no incremental after-view (``delta.*``) fired and
    that no after-view graph was built (``overrides.materialized``); the
    wall clock is recorded.  The run goes under ``gc.DEBUG_SAVEALL``, so a
    reference cycle through a run's reports would stay in ``gc.garbage``
    after the final collection instead of being freed.  Forces ``jobs=1``:
    the tracer's counters and the sweep spies are process-local and would
    stay zero if trials ran in pool workers.
    """
    import gc
    import time
    from collections import Counter

    from repro.graph import bitmatrix, metrics
    from repro.protocols.base import CollectedReports, SharedGraphPairedCollection
    from repro.telemetry.core import Tracer, use_tracer

    full_sweeps = Counter()

    def spy(owner, name, is_full):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            full_sweeps[name] += is_full(*args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(bitmatrix, "_gather_triangles", lambda *args: True)
    spy(metrics, "_triangles_sparse", lambda graph, nodes=None: nodes is None)
    spy(metrics, "streaming_triangles_per_node",
        lambda graph, *args, nodes=None, **kwargs: nodes is None)

    spec = get_scenario("fig9")
    config = bench_config(spec.dataset, jobs=1)

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with use_tracer(Tracer()) as tracer:
            start = time.perf_counter()
            run_scenario(spec, config)
            seconds = time.perf_counter() - start
        gc.collect()
        cyclic = [
            type(item).__name__
            for item in gc.garbage
            if isinstance(item, (CollectedReports, SharedGraphPairedCollection))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    tasks = tracer.counters.get("kernel.batched", 0)
    materialized = tracer.counters.get("overrides.materialized", 0)
    at_nodes = tracer.counters.get("triangles.at_nodes", 0)
    delta = {name: count for name, count in tracer.counters.items() if name.startswith("delta.")}

    record_timing("bench_scenarios/paired", seconds)
    emit(
        "fig9_target_counts",
        f"fig09 workload ({spec.dataset}): {seconds:.2f}s\n"
        f"target counts: {at_nodes} for {tasks} tasks; full sweeps: {dict(full_sweeps)}; "
        f"delta counters: {delta}; after-views built: {materialized}; "
        f"runs left to the cyclic collector: {len(cyclic)}",
    )
    assert tasks > 0 and at_nodes == 2 * tasks, "a view skipped the target-restricted count"
    assert sum(full_sweeps.values()) == 0, f"full triangle sweeps ran: {dict(full_sweeps)}"
    assert not delta, f"the incremental after-view ran: {delta}"
    assert materialized == 0, f"{materialized} after-view graphs were built"
    assert not cyclic, f"paired runs in reference cycles: {sorted(set(cyclic))}"


def test_scenario_compile_overhead(benchmark):
    """Compiling a spec to its task batch is negligible next to running it."""
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.run import load_scenario_graph

    spec = get_scenario("fig12a")
    config = bench_config(spec.dataset)
    graph = load_scenario_graph(spec, config)

    tasks = benchmark(compile_scenario, spec, graph, config)
    assert len(tasks) == (2 + len(spec.values)) * config.trials
