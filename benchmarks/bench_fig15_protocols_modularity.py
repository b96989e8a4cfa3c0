"""Fig. 15 — attacks on LF-GDPR and LDPGen, modularity (Exp 9).

Expected shapes (paper): all attacks shift the estimated modularity on both
protocols across epsilon, MGA generally strongest.
"""

import numpy as np
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


def test_fig15_protocol_comparison(benchmark):
    config = bench_config("facebook")

    results = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig15"), config), rounds=1, iterations=1
    ).panels

    for name, sweep in results.items():
        emit("fig15_protocols_modularity", sweep.format())
    for name, sweep in results.items():
        mga = np.array(sweep.gains_of("MGA"))
        assert np.all(np.isfinite(mga)), f"{name}: non-finite MGA gains"
        assert mga.mean() > 0, f"{name}: MGA must shift modularity"
