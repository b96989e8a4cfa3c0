"""Fig. 6 — overall gains of attacks to degree centrality vs epsilon (Exp 1).

Expected shapes (paper): MGA far above RVA and RNA at every epsilon; MGA and
RVA decrease as epsilon grows (larger budgets mean fewer injectable edges);
RNA stays nearly flat (always one crafted edge per fake user).
"""

import numpy as np
import pytest
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


@pytest.mark.parametrize("dataset", ["facebook", "enron", "astroph", "gplus"])
def test_fig6_degree_vs_epsilon(benchmark, dataset):
    config = bench_config(dataset)

    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig6", dataset=dataset), config),
        rounds=1, iterations=1,
    ).sweep()

    emit("fig06_degree_vs_epsilon", result.format())
    mga = np.array(result.gains_of("MGA"))
    rva = np.array(result.gains_of("RVA"))
    rna = np.array(result.gains_of("RNA"))
    assert np.all(np.isfinite(mga)) and np.all(mga > 0)
    # MGA dominates both baselines at every epsilon.
    assert np.all(mga >= rva) and np.all(mga >= rna)
    # MGA and RVA weaken as epsilon grows (first vs last grid point).
    assert mga[0] > mga[-1]
    assert rva[0] > rva[-1]
