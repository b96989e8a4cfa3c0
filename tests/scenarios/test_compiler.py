"""Compiler tests: seed-key compatibility and batch structure.

The scenario compiler must emit the *historical* seed-derivation keys of the
pre-scenario figure drivers — that equivalence is what keeps every recorded
figure output bit-identical.  These tests pin both key shapes against
independent constructions: both styles against literally-spelled key
strings.
"""

import pytest

from repro.engine.tasks import TrialTask, derive_trial_seed, graph_fingerprint
from repro.experiments.config import ExperimentConfig
from repro.graph.generators import powerlaw_cluster_graph
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import (
    SWEEP_DEFENSE_ARG,
    SWEEP_FLAT,
    PanelSpec,
    ScenarioSpec,
    SeriesSpec,
)

CONFIG = ExperimentConfig(trials=2, seed=7, cache=False)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(120, 4, 0.5, rng=0)


def sweep_tasks(graph, figure, metric, attacks, protocol):
    """A sweep-style panel spelled out: the historical attack-sweep keys."""
    graph_key = graph_fingerprint(graph)
    return [
        TrialTask(
            graph_key=graph_key, metric=metric,
            attack=f"{family}/{series.lower()}", protocol=protocol,
            epsilon=epsilon, beta=CONFIG.beta, gamma=CONFIG.gamma,
            seed=derive_trial_seed(
                CONFIG.seed,
                f"{figure}|facebook|{metric}|{series}|epsilon={epsilon!r}|trial={trial}",
            ),
            figure=figure, series=series, parameter="epsilon",
            value=epsilon, trial=trial,
        )
        for epsilon in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        for family, series in attacks
        for trial in range(CONFIG.trials)
    ]


class TestSweepStyle:
    def test_matches_legacy_sweep_builder(self, graph):
        """fig6 compiles to the historical attack-sweep batch, key for key."""
        spec = get_scenario("fig6")
        compiled = compile_scenario(spec, graph, CONFIG)
        attacks = [("degree", "RVA"), ("degree", "RNA"), ("degree", "MGA")]
        legacy = sweep_tasks(graph, "Fig6", "degree_centrality", attacks, "lfgdpr")
        assert set(compiled) == set(legacy)
        assert len(compiled) == len(legacy) == 8 * 3 * CONFIG.trials
        mga = next(
            task for task in compiled
            if task.series == "MGA" and task.value == 4.0 and task.trial == 1
        )
        assert mga.seed == derive_trial_seed(
            7, "Fig6|facebook|degree_centrality|MGA|epsilon=4.0|trial=1"
        )

    def test_multi_panel_matches_two_legacy_batches(self, graph):
        """fig14 compiles to the union of the two historical panel batches."""
        spec = get_scenario("fig14")
        compiled = compile_scenario(spec, graph, CONFIG)
        attacks = [("clustering", "RVA"), ("clustering", "RNA"), ("clustering", "MGA")]
        legacy = []
        for panel, protocol in (("LF-GDPR", "lfgdpr"), ("LDPGen", "ldpgen")):
            legacy += sweep_tasks(
                graph, f"Fig14-{panel}", "clustering_coefficient", attacks, protocol
            )
        assert set(compiled) == set(legacy)

    def test_per_series_protocols_in_one_panel(self, graph):
        """Cross-product series may mix protocols inside one panel."""
        spec = get_scenario("xprod/protocol-duel-mga")
        compiled = compile_scenario(spec, graph, CONFIG)
        protocols = {task.series: task.protocol for task in compiled}
        assert protocols == {"LF-GDPR/MGA": "lfgdpr", "LDPGen/MGA": "ldpgen"}


class TestDefenseStyle:
    def test_threshold_sweep_matches_historical_keys(self, graph):
        """Fig. 12(a): flat references measured once, Detect1 per threshold."""
        spec = get_scenario("fig12a")
        compiled = compile_scenario(spec, graph, CONFIG)
        graph_key = graph_fingerprint(graph)

        def expected(series, defense, defense_args, seed_key, value):
            return [
                TrialTask(
                    graph_key=graph_key, metric="degree_centrality",
                    attack="degree/mga", protocol="lfgdpr",
                    epsilon=CONFIG.epsilon, beta=CONFIG.beta, gamma=CONFIG.gamma,
                    seed=derive_trial_seed(CONFIG.seed, f"Fig12a|{seed_key}|trial={trial}"),
                    defense=defense, defense_args=defense_args,
                    figure="Fig12a", series=series, parameter="threshold",
                    value=value, trial=trial,
                )
                for trial in range(CONFIG.trials)
            ]

        legacy = expected("NoDefense", "", (), "NoDefense", 0.0)
        legacy += expected("Naive1", "naive1", (), "Naive1", 0.0)
        for threshold in spec.values:
            legacy += expected(
                "Detect1", "detect1", (("threshold", int(threshold)),),
                f"Detect1|threshold={threshold}", float(threshold),
            )
        assert set(compiled) == set(legacy)
        # Flat series are measured once, not once per grid point.
        assert len(compiled) == (2 + len(spec.values)) * CONFIG.trials

    def test_beta_sweep_matches_historical_keys(self, graph):
        """Fig. 12(b): every series re-measured at every beta."""
        spec = get_scenario("fig12b")
        compiled = compile_scenario(spec, graph, CONFIG)
        graph_key = graph_fingerprint(graph)
        legacy = []
        for series, defense in (("NoDefense", ""), ("Detect2", "detect2"), ("Naive2", "naive2")):
            for beta in spec.values:
                legacy += [
                    TrialTask(
                        graph_key=graph_key, metric="degree_centrality",
                        attack="degree/rva", protocol="lfgdpr",
                        epsilon=CONFIG.epsilon, beta=beta, gamma=CONFIG.gamma,
                        seed=derive_trial_seed(
                            CONFIG.seed, f"Fig12b|{series}|beta={beta}|trial={trial}"
                        ),
                        defense=defense, defense_args=(),
                        figure="Fig12b", series=series, parameter="beta",
                        value=float(beta), trial=trial,
                    )
                    for trial in range(CONFIG.trials)
                ]
        assert set(compiled) == set(legacy)

    def test_integer_thresholds_stay_integral(self, graph):
        spec = get_scenario("fig12a")
        for task in compile_scenario(spec, graph, CONFIG):
            for name, value in task.defense_args:
                assert name == "threshold"
                assert isinstance(value, int)


class TestCompileErrors:
    def test_stats_scenarios_do_not_compile(self, graph):
        with pytest.raises(ValueError, match="compiles to no tasks"):
            compile_scenario(get_scenario("table2"), graph, CONFIG)

    def test_modularity_needs_labels(self, graph):
        with pytest.raises(ValueError, match="community labels"):
            compile_scenario(get_scenario("fig15"), graph, CONFIG)


class TestBatchShape:
    def test_every_task_carries_display_coordinates(self, graph):
        spec = ScenarioSpec(
            name="shape", description="d", values=(2.0, 4.0),
            panels=(
                PanelSpec(
                    figure="Shape",
                    series=(
                        SeriesSpec(name="MGA", attack="degree/mga"),
                        SeriesSpec(name="Flat", attack="degree/rva", sweep=SWEEP_FLAT),
                        SeriesSpec(
                            name="D1", attack="degree/mga", defense="detect1",
                            sweep=SWEEP_DEFENSE_ARG, sweep_arg="threshold",
                        ),
                    ),
                ),
            ),
            seed_style="defense", parameter="epsilon",
        )
        tasks = compile_scenario(spec, graph, CONFIG)
        # MGA sweeps the point: epsilon follows the grid.
        assert {t.epsilon for t in tasks if t.series == "MGA"} == {2.0, 4.0}
        # Flat stays at the config default and appears once.
        flat = [t for t in tasks if t.series == "Flat"]
        assert len(flat) == CONFIG.trials
        assert {t.epsilon for t in flat} == {CONFIG.epsilon}
        # Defense-arg sweep: epsilon stays default, threshold follows the grid.
        d1 = [t for t in tasks if t.series == "D1"]
        assert {t.epsilon for t in d1} == {CONFIG.epsilon}
        assert {dict(t.defense_args)["threshold"] for t in d1} == {2.0, 4.0}
        # Seeds are unique across the whole batch.
        assert len({t.seed for t in tasks}) == len(tasks)


class TestPerPanelGraphs:
    """compile_panels: heterogeneous batches keyed by per-panel graphs."""

    def test_panels_compile_against_their_own_graphs(self, graph):
        from repro.scenarios.compiler import compile_panels

        other = powerlaw_cluster_graph(90, 4, 0.5, rng=1)
        spec = ScenarioSpec(
            name="t/two-graphs", description="", metric="degree_centrality",
            parameter="epsilon", values=(2.0,),
            panels=(
                PanelSpec(figure="PA", name="a", series=(SeriesSpec(name="MGA", attack="degree/mga"),)),
                PanelSpec(figure="PB", name="b", series=(SeriesSpec(name="MGA", attack="degree/mga"),)),
            ),
        )
        tasks = compile_panels(
            spec, CONFIG,
            graphs={"a": graph, "b": other},
            labels={"a": None, "b": None},
        )
        keys = {task.figure: task.graph_key for task in tasks}
        assert keys == {
            "PA": graph_fingerprint(graph),
            "PB": graph_fingerprint(other),
        }

    def test_same_graph_everywhere_matches_compile_scenario(self, graph):
        from repro.scenarios.compiler import compile_panels

        spec = get_scenario("fig14")
        via_scenario = compile_scenario(spec, graph, CONFIG)
        via_panels = compile_panels(
            spec, CONFIG,
            graphs={panel.key: graph for panel in spec.panels},
            labels={panel.key: None for panel in spec.panels},
        )
        assert via_panels == via_scenario

    def test_single_graph_compile_rejects_pinned_panels(self, graph):
        spec = get_scenario("xprod/cross-dataset-mga")
        with pytest.raises(ValueError, match="per-panel"):
            compile_scenario(spec, graph, CONFIG)
