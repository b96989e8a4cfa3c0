"""Tests for sweep results and scenario sweeps of paper figures (small scales)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SweepResult
from repro.graph.generators import powerlaw_cluster_graph
from repro.scenarios import community_labels, get_scenario, run_scenario
from repro.scenarios.compiler import compile_scenario

TINY = ExperimentConfig(trials=1, seed=0, scale=0.05)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(200, 4, 0.5, rng=0)


def sweep(name, values, config=TINY):
    """One figure scenario cut to ``values``, run end to end."""
    spec = replace(get_scenario(name), values=tuple(values))
    return run_scenario(spec, config).sweep()


class TestScenarioSweep:
    def test_epsilon_sweep_structure(self):
        result = sweep("fig6", [2.0, 4.0])
        assert set(result.series) == {"RVA", "RNA", "MGA"}
        assert all(len(series) == 2 for series in result.series.values())

    def test_clustering_attacks_selected_by_metric(self, graph):
        spec = get_scenario("fig9")
        tasks = compile_scenario(spec, graph, TINY)
        assert {task.metric for task in tasks} == {"clustering_coefficient"}
        assert {task.attack for task in tasks} == {
            "clustering/rva", "clustering/rna", "clustering/mga",
        }
        assert set(sweep("fig9", [4.0]).series) == {"RVA", "RNA", "MGA"}

    def test_deterministic(self):
        assert sweep("fig7", [0.05]).series == sweep("fig7", [0.05]).series

    def test_gains_finite_and_nonnegative(self):
        result = sweep("fig8", [0.01, 0.05])
        for series in result.series.values():
            assert all(np.isfinite(g) and g >= 0 for g in series)


class TestSweepResult:
    def test_format_contains_values(self):
        result = SweepResult(
            figure="FigX", dataset="toy", metric="m", parameter="epsilon",
            values=[1.0, 2.0], series={"MGA": [0.5, 0.25]},
        )
        text = result.format()
        assert "FigX" in text and "MGA" in text and "0.2500" in text
        # No stderr recorded -> no ± column.
        assert "±" not in text

    def test_gains_of_missing_attack(self):
        result = SweepResult("F", "d", "m", "epsilon", [1.0], {"MGA": [1.0]})
        with pytest.raises(KeyError, match="have: MGA"):
            result.gains_of("RVA")

    def test_add_point_aggregates_trials(self):
        result = SweepResult("F", "d", "m", "epsilon", [1.0])
        result.add_point("MGA", [1.0, 3.0])
        assert result.series["MGA"] == [2.0]
        # Sample stdev of [1, 3] is sqrt(2); SEM = sqrt(2)/sqrt(2) = 1.
        assert result.stderr["MGA"] == [1.0]
        assert result.samples["MGA"] == [[1.0, 3.0]]

    def test_single_trial_stderr_is_zero(self):
        result = SweepResult("F", "d", "m", "epsilon", [1.0])
        result.add_point("MGA", [4.0])
        assert result.stderr["MGA"] == [0.0]

    def test_format_renders_stderr_column(self):
        result = SweepResult("F", "d", "m", "epsilon", [1.0])
        result.add_point("MGA", [1.0, 3.0])
        text = result.format()
        assert "±" in text and "2.0000" in text and "1.0000" in text


class TestSweepStatistics:
    def test_sweep_carries_per_trial_samples(self):
        config = ExperimentConfig(trials=3, seed=0, scale=0.05, cache=False)
        result = sweep("fig6", [4.0], config)
        for name in result.series:
            assert len(result.samples[name]) == 1
            assert len(result.samples[name][0]) == 3
            assert result.series[name][0] == pytest.approx(
                float(np.mean(result.samples[name][0]))
            )
            assert result.stderr[name][0] >= 0.0
        assert "±" in result.format()


class TestFigureDrivers:
    """Each paper artifact runs as its registered scenario."""

    def test_table2_rows(self):
        rows = run_scenario(get_scenario("table2"), TINY).table
        assert len(rows) == 4
        assert rows[0][0] == "facebook"
        assert rows[0][1] == 4039 and rows[0][2] == 88234

    def test_fig6_small(self):
        result = run_scenario(
            get_scenario("fig6", dataset="facebook"), TINY.with_overrides(scale=0.04)
        ).sweep()
        assert result.metric == "degree_centrality"
        assert len(result.values) == 8

    def test_fig9_small(self):
        result = run_scenario(
            get_scenario("fig9", dataset="facebook"), TINY.with_overrides(scale=0.04)
        ).sweep()
        assert result.metric == "clustering_coefficient"
        assert set(result.series) == {"RVA", "RNA", "MGA"}

    def test_fig12a_series(self):
        result = run_scenario(get_scenario("fig12a"), TINY.with_overrides(scale=0.04)).sweep()
        assert set(result.series) == {"NoDefense", "Detect1", "Naive1"}
        assert len(result.values) == 6

    def test_fig12b_series(self):
        result = run_scenario(get_scenario("fig12b"), TINY.with_overrides(scale=0.04)).sweep()
        assert set(result.series) == {"NoDefense", "Detect2", "Naive2"}

    def test_fig14_two_protocols(self):
        spec = replace(get_scenario("fig14"), values=(4.0,))
        results = run_scenario(spec, TINY.with_overrides(scale=0.03)).panels
        assert set(results) == {"LF-GDPR", "LDPGen"}
        for sweep in results.values():
            assert len(sweep.values) == 1

    def test_community_labels_partition(self, graph):
        labels = community_labels(graph)
        assert labels.shape == (graph.num_nodes,)
        assert labels.min() == 0
