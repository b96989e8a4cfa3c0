"""Fig. 9 — overall gains of attacks to clustering coefficient vs eps (Exp 4).

Expected shapes (paper): MGA consistently above RVA and RNA across the whole
epsilon range; RVA generally above RNA.
"""

import numpy as np
import pytest
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


@pytest.mark.parametrize("dataset", ["facebook", "enron", "astroph", "gplus"])
def test_fig9_cc_vs_epsilon(benchmark, dataset):
    config = bench_config(dataset)

    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig9", dataset=dataset), config),
        rounds=1, iterations=1,
    ).sweep()

    emit("fig09_cc_vs_epsilon", result.format())
    mga = np.array(result.gains_of("MGA"))
    rva = np.array(result.gains_of("RVA"))
    rna = np.array(result.gains_of("RNA"))
    assert np.all(np.isfinite(mga)) and np.all(mga > 0)
    assert np.all(mga >= rva) and np.all(mga >= rna)
    assert rva.mean() > rna.mean(), "RVA generally outperforms RNA"
