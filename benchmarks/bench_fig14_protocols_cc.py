"""Fig. 14 — attacks on LF-GDPR and LDPGen, clustering coefficient (Exp 9).

Expected shapes (paper): all three attacks are effective on both protocols
across the epsilon range, with MGA generally achieving the best performance,
followed by RVA and RNA.
"""

import numpy as np
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


def test_fig14_protocol_comparison(benchmark):
    config = bench_config("facebook")

    results = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig14"), config), rounds=1, iterations=1
    ).panels

    for name, sweep in results.items():
        emit("fig14_protocols_cc", sweep.format())
    for name, sweep in results.items():
        mga = np.array(sweep.gains_of("MGA"))
        rna = np.array(sweep.gains_of("RNA"))
        assert np.all(np.isfinite(mga)), f"{name}: non-finite MGA gains"
        assert mga.mean() > 0, f"{name}: MGA must be effective"
        assert mga.mean() > rna.mean(), f"{name}: MGA generally beats RNA"
