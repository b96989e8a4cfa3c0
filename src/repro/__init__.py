"""Data Poisoning Attacks to Local Differential Privacy Protocols for Graphs.

A full reproduction of the ICDE 2025 paper: graph-LDP protocols (LF-GDPR,
LDPGen), the RVA/RNA/MGA poisoning attacks on degree centrality and
clustering coefficient, two countermeasures, and a benchmark harness
regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import (
        LFGDPRProtocol, ThreatModel, DegreeMGA, evaluate_attack, load_dataset,
    )

    graph = load_dataset("facebook", scale=0.25)
    protocol = LFGDPRProtocol(epsilon=4.0)
    threat = ThreatModel.sample(graph, beta=0.05, gamma=0.05, rng=0)
    outcome = evaluate_attack(graph, protocol, DegreeMGA(), threat,
                              metric="degree_centrality", rng=0)
    print(outcome.total_gain)
"""

from repro.core import (
    Attack,
    AttackerKnowledge,
    AttackOutcome,
    ClusteringMGA,
    ClusteringRNA,
    ClusteringRVA,
    DegreeMGA,
    DegreeRNA,
    DegreeRVA,
    ThreatModel,
    evaluate_attack,
    theorem1_degree_gain,
    theorem2_clustering_gain,
)
from repro.engine import (
    ATTACKS,
    DEFENSES,
    PROTOCOLS,
    EngineSession,
    GraphStore,
    ParallelExecutor,
    SerialExecutor,
    ShardedResultStore,
    TrialTask,
)
from repro.graph import Graph, load_dataset
from repro.protocols import FakeReport, LDPGenProtocol, LFGDPRProtocol
from repro.scenarios import (
    SCENARIOS,
    ScenarioResult,
    ScenarioSpec,
    SeriesSpec,
    get_scenario,
    register_scenario,
    run_scenario,
    run_scenarios,
)
from repro.telemetry import (
    ProgressPrinter,
    RunManifest,
    TelemetryCallbacks,
    Tracer,
    current_tracer,
    set_tracer,
)

__version__ = "1.0.0"

__all__ = [
    "ATTACKS",
    "DEFENSES",
    "PROTOCOLS",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioSpec",
    "SeriesSpec",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "run_scenarios",
    "EngineSession",
    "GraphStore",
    "ParallelExecutor",
    "SerialExecutor",
    "ShardedResultStore",
    "TrialTask",
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
    "ProgressPrinter",
    "RunManifest",
    "TelemetryCallbacks",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "__version__",
]
