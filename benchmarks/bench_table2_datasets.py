"""Table II — dataset statistics (paper values vs loaded surrogates)."""

from conftest import bench_trials, emit

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.scenarios import get_scenario, run_scenario


def test_table2_datasets(benchmark):
    # Table II uses the dataset default scales (facebook full size); the
    # driver only generates the four graphs, so no bench downscaling needed.
    config = ExperimentConfig(trials=bench_trials(), seed=0, scale=None)

    rows = benchmark.pedantic(
        run_scenario, args=(get_scenario("table2"), config), rounds=1, iterations=1
    ).table

    table = format_table(
        ["dataset", "paper nodes", "paper edges", "surrogate nodes", "surrogate edges"],
        rows,
        title="Table II — datasets (surrogates at default scales)",
    )
    emit("table2", table)
    assert len(rows) == 4
    assert rows[0][3] == 4039, "facebook surrogate is full size by default"
    assert all(edges > 0 for *_, edges in rows)
