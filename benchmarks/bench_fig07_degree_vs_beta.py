"""Fig. 7 — impact of beta on attacks to degree centrality (Exp 2).

Expected shapes (paper): all three attacks grow with the fake-user fraction;
MGA > RVA > RNA throughout.
"""

import numpy as np
import pytest
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


@pytest.mark.parametrize("dataset", ["facebook", "enron", "astroph", "gplus"])
def test_fig7_degree_vs_beta(benchmark, dataset):
    config = bench_config(dataset)

    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig7", dataset=dataset), config),
        rounds=1, iterations=1,
    ).sweep()

    emit("fig07_degree_vs_beta", result.format())
    mga = np.array(result.gains_of("MGA"))
    rva = np.array(result.gains_of("RVA"))
    rna = np.array(result.gains_of("RNA"))
    assert np.all(mga >= rva) and np.all(mga >= rna)
    # Positive correlation with beta: more fake users, more gain.
    assert mga[-1] > mga[0]
    assert rva[-1] > rva[0]
