"""run_scenario / run_scenarios aggregation tests (tiny scales)."""

import pytest

from repro.engine.cache import NullCache
from repro.engine.session import EngineSession
from repro.experiments.config import ExperimentConfig
from repro.scenarios.registry import get_scenario
from repro.scenarios.run import prepare_scenario, run_scenario, run_scenarios
from repro.telemetry.core import Tracer, use_tracer

TINY = ExperimentConfig(trials=1, scale=0.02, seed=0, cache=False)


def _run(name, config=TINY):
    return run_scenario(get_scenario(name), config, cache=NullCache())


class TestSweepAggregation:
    def test_single_panel_unwraps(self):
        result = _run("fig6")
        sweep = result.sweep()
        assert set(sweep.series) == {"RVA", "RNA", "MGA"}
        assert len(sweep.series["MGA"]) == len(sweep.values) == 8

    def test_flat_series_replicated_across_grid(self):
        result = _run("fig12a")
        sweep = result.sweep()
        flat = sweep.series["NoDefense"]
        assert len(flat) == len(sweep.values)
        assert len(set(flat)) == 1, "flat reference must repeat one measurement"
        assert len(set(sweep.series["Detect1"])) > 1 or len(sweep.values) == 1

    def test_multi_panel_keys_and_unwrap_refusal(self):
        result = _run("fig14")
        assert sorted(result.panels) == ["LDPGen", "LF-GDPR"]
        with pytest.raises(ValueError, match="pick one explicitly"):
            result.sweep()

    def test_format_contains_every_panel(self):
        text = _run("fig14").format()
        assert "Fig14-LF-GDPR" in text and "Fig14-LDPGen" in text

    def test_series_order_matches_spec(self):
        spec = get_scenario("fig12a")
        sweep = _run("fig12a").sweep()
        assert list(sweep.series) == [s.name for s in spec.panels[0].series]


class TestStats:
    def test_table2_rows(self):
        result = _run("table2")
        assert result.table is not None
        assert [row[0] for row in result.table] == ["facebook", "enron", "astroph", "gplus"]
        assert "facebook" in result.format()

    def test_dataset_override_narrows_stats(self):
        spec = get_scenario("table2", dataset="enron")
        result = run_scenario(spec, TINY)
        assert [row[0] for row in result.table] == ["enron"]


class TestOverrides:
    def test_dataset_override_changes_graph(self):
        facebook = _run("fig6").sweep()
        enron = run_scenario(
            get_scenario("fig6", dataset="enron"), TINY, cache=NullCache()
        ).sweep()
        assert facebook.dataset == "facebook" and enron.dataset == "enron"
        assert facebook.series != enron.series


class TestCrossDataset:
    """Panels pinned to different datasets compile to one multi-graph batch."""

    def test_panels_carry_their_own_graphs(self):
        spec = get_scenario("xprod/cross-dataset-mga")
        graphs, labels, tasks = prepare_scenario(spec, TINY)
        assert list(graphs) == ["facebook", "enron", "astroph"]
        assert len({id(graph) for graph in graphs.values()}) == 3
        keys_by_panel = {
            panel: {task.graph_key for task in tasks if task.figure == f"XDataset-{panel}"}
            for panel in graphs
        }
        assert all(len(keys) == 1 for keys in keys_by_panel.values())
        assert len(set().union(*keys_by_panel.values())) == 3, "distinct graphs per panel"

    def test_result_has_one_sweep_per_dataset(self):
        result = _run("xprod/cross-dataset-mga")
        assert list(result.panels) == ["facebook", "enron", "astroph"]
        for dataset, sweep in result.panels.items():
            assert sweep.dataset == dataset
            assert set(sweep.series) == {"RVA", "RNA", "MGA"}

    def test_dataset_override_does_not_move_pinned_panels(self):
        spec = get_scenario("xprod/cross-dataset-mga", dataset="enron")
        assert [panel.dataset for panel in spec.panels] == ["facebook", "enron", "astroph"]


class TestRunScenarios:
    """Several scenarios batch into one session and stay bit-identical."""

    def test_matches_individual_runs(self):
        names = ["fig6", "fig12a", "xprod/cross-dataset-mga", "table2"]
        specs = [get_scenario(name) for name in names]
        batched = run_scenarios(specs, TINY)
        assert list(batched) == names
        for spec in specs:
            alone = run_scenario(spec, TINY, cache=NullCache())
            together = batched[spec.name]
            if alone.table is not None:
                assert together.table == alone.table
                continue
            for key, sweep in alone.panels.items():
                assert together.panels[key].series == sweep.series
                assert together.panels[key].stderr == sweep.stderr

    def test_dataset_override_retargets_every_scenario(self):
        names = ("fig6", "fig12a")
        batched = run_scenarios(
            [get_scenario(name, dataset="enron") for name in names], TINY
        )
        for name in names:
            assert batched[name].sweep().dataset == "enron"
        alone = run_scenario(get_scenario("fig6", dataset="enron"), TINY)
        assert batched["fig6"].sweep().series == alone.sweep().series

    def test_one_run_span_names_every_scenario(self):
        specs = [get_scenario("fig6"), get_scenario("fig12a")]
        tracer = Tracer()
        with use_tracer(tracer):
            run_scenarios(specs, TINY)
        run_spans = [span for span in tracer.spans if span.name == "scenario.run"]
        assert len(run_spans) == 1
        assert run_spans[0].attributes["scenarios"] == ["fig6", "fig12a"]
        assert run_spans[0].attributes["tasks"] == tracer.counters["batch.tasks"]

    def test_shared_session_registers_each_graph_once(self):
        specs = [get_scenario("fig6"), get_scenario("fig7")]  # same dataset
        with EngineSession(jobs=1) as session:
            run_scenarios(specs, TINY, session=session)
            assert len(session.graphs) == 1, "one facebook surrogate, one entry"

    def test_duplicate_names_rejected(self):
        spec = get_scenario("fig6")
        with pytest.raises(ValueError, match="duplicate"):
            run_scenarios([spec, spec], TINY)
