"""API-surface tests: the documented public interface must stay importable.

These tests pin the names README and the examples rely on; renaming or
dropping any of them is a breaking change that must be deliberate.
"""

import importlib
import inspect

import pytest

import repro

TOP_LEVEL_API = [
    "ATTACKS",
    "PROTOCOLS",
    "DEFENSES",
    "TrialTask",
    "SerialExecutor",
    "ParallelExecutor",
    "Attack",
    "AttackerKnowledge",
    "AttackOutcome",
    "ClusteringMGA",
    "ClusteringRNA",
    "ClusteringRVA",
    "DegreeMGA",
    "DegreeRNA",
    "DegreeRVA",
    "ThreatModel",
    "evaluate_attack",
    "theorem1_degree_gain",
    "theorem2_clustering_gain",
    "Graph",
    "load_dataset",
    "FakeReport",
    "LDPGenProtocol",
    "LFGDPRProtocol",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioSpec",
    "SeriesSpec",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "Tracer",
    "RunManifest",
    "TelemetryCallbacks",
    "current_tracer",
]

SUBPACKAGES = [
    "repro.graph",
    "repro.ldp",
    "repro.protocols",
    "repro.core",
    "repro.defenses",
    "repro.engine",
    "repro.experiments",
    "repro.scenarios",
    "repro.telemetry",
    "repro.utils",
]


class TestTopLevel:
    @pytest.mark.parametrize("name", TOP_LEVEL_API)
    def test_exported(self, name):
        assert hasattr(repro, name), f"repro.{name} missing from public API"
        assert name in repro.__all__

    @pytest.mark.parametrize(
        "name",
        [
            "ResultCache",
            "average_gain",
            "FrequencyMGA",
            "FrequencyRIA",
            "FrequencyRPA",
            "evaluate_frequency_attack",
            "KRR",
            "OLH",
            "OUE",
        ],
    )
    def test_retired_names_absent(self, name):
        """Names deleted with the per-task cache, the sweep runner and the
        frequency-oracle attack family stay gone."""
        assert not hasattr(repro, name)
        assert name not in repro.__all__

    @pytest.mark.parametrize(
        "module_name, name",
        [
            ("repro.experiments", "community_labels"),
            ("repro.experiments", "fig6"),
            ("repro.experiments", "table2_rows"),
            ("repro.engine", "session_scope"),
            ("repro.protocols", "fuse_degree_estimates"),
            ("repro.protocols", "degree_histogram"),
            ("repro.protocols", "estimate_degree_distribution"),
            ("repro.protocols", "histogram_distance"),
            ("repro.ldp", "expected_perturbed_average_degree"),
        ],
    )
    def test_retired_subpackage_names_absent(self, module_name, name):
        """The figure facade and the session-scope helper stay gone (every
        artifact runs through ``repro.scenarios.run_scenarios``), and so do
        LF-GDPR's degree fusion and degree-distribution estimator."""
        module = importlib.import_module(module_name)
        assert not hasattr(module, name)
        assert name not in module.__all__

    def test_one_scenario_runner(self):
        """No figure-facade module, no ``prepared=`` shortcut, no unused
        ``SweepResult.stderr_of``."""
        with pytest.raises(ImportError):
            importlib.import_module("repro.experiments.figures")
        assert "prepared" not in inspect.signature(repro.run_scenario).parameters
        from repro.experiments import SweepResult

        assert not hasattr(SweepResult, "stderr_of")

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_module_docstring_mentions_paper(self):
        assert "Poisoning" in repro.__doc__


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable_with_all(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} needs a docstring"
        assert hasattr(module, "__all__"), f"{module_name} needs __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} in __all__ but missing"


class TestDocstrings:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_callables_documented(self, module_name):
        """Every public class/function reachable from a subpackage's __all__
        carries a docstring."""
        module = importlib.import_module(module_name)
        undocumented = []
        for name in module.__all__:
            member = getattr(module, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                if not inspect.getdoc(member):
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_methods_documented(self):
        """Public methods of the flagship classes are documented."""
        from repro import Graph, LFGDPRProtocol, ThreatModel

        for cls in (Graph, LFGDPRProtocol, ThreatModel):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, property):
                    target = member.fget if isinstance(member, property) else member
                    assert inspect.getdoc(target), f"{cls.__name__}.{name} undocumented"
