"""Fig. 8 — impact of gamma on attacks to degree centrality (Exp 3).

Expected shapes (paper): all attacks grow with the number of targets (larger
attack surface); MGA consistently on top.
"""

import numpy as np
import pytest
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


@pytest.mark.parametrize("dataset", ["facebook", "enron", "astroph", "gplus"])
def test_fig8_degree_vs_gamma(benchmark, dataset):
    config = bench_config(dataset)

    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig8", dataset=dataset), config),
        rounds=1, iterations=1,
    ).sweep()

    emit("fig08_degree_vs_gamma", result.format())
    mga = np.array(result.gains_of("MGA"))
    rva = np.array(result.gains_of("RVA"))
    assert np.all(mga >= rva)
    assert mga[-1] > mga[0], "more targets -> larger overall gain"
