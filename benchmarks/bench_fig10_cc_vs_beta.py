"""Fig. 10 — impact of beta on attacks to clustering coefficient (Exp 5).

Expected shapes (paper): positive correlation with beta for all attacks;
MGA's curve plateaus toward RVA once the fake nodes cover all targets
(beta around 0.05-0.1).
"""

import numpy as np
import pytest
from conftest import bench_config, emit

from repro.scenarios import get_scenario, run_scenario


@pytest.mark.parametrize("dataset", ["facebook", "enron", "astroph", "gplus"])
def test_fig10_cc_vs_beta(benchmark, dataset):
    config = bench_config(dataset)

    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("fig10", dataset=dataset), config),
        rounds=1, iterations=1,
    ).sweep()

    emit("fig10_cc_vs_beta", result.format())
    mga = np.array(result.gains_of("MGA"))
    assert np.all(np.isfinite(mga))
    assert mga[-1] > mga[0], "more fake users -> larger clustering gain"
