"""Fig. 12 — countermeasures against attacks to degree centrality (Exp 7).

Panel (a): frequent-itemsets detection (Detect1) and the Naive1 baseline
against MGA, across the detection threshold.  Expected: a U-ish relationship
(over-flagging at tiny thresholds distorts estimates; under-flagging at large
thresholds lets the attack through), Detect1 generally below Naive1.

Panel (b): degree-consistency detection (Detect2) and Naive2 against RVA
across beta.  Expected: Detect2 below NoDefense but not zero; Naive2 can
exceed NoDefense because it flags genuine hubs/leaves.
"""

import numpy as np
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


def test_fig12a_detect1_vs_mga(benchmark):
    config = bench_config("facebook")

    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig12a"), config), rounds=1, iterations=1
    ).sweep()

    emit("fig12_counter_degree", result.format())
    detect1 = np.array(result.gains_of("Detect1"))
    no_defense = np.array(result.gains_of("NoDefense"))
    assert np.all(np.isfinite(detect1))
    # Somewhere on the threshold grid the defense helps...
    assert detect1.min() < no_defense[0]
    # ...but it never fully neutralises the attack.
    assert detect1.min() > 0


def test_fig12b_detect2_vs_rva(benchmark):
    config = bench_config("facebook")

    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig12b"), config), rounds=1, iterations=1
    ).sweep()

    emit("fig12_counter_degree", result.format())
    detect2 = np.array(result.gains_of("Detect2"))
    no_defense = np.array(result.gains_of("NoDefense"))
    assert np.all(np.isfinite(detect2))
    # Averaged over the beta grid, Detect2 reduces the RVA gain.
    assert detect2.mean() < no_defense.mean()
    assert detect2.min() > 0
