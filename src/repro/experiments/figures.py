"""Per-figure experiment drivers: one function per table/figure of §VIII.

Every driver is now a thin wrapper over the declarative scenario subsystem:
the figure's full description (dataset, metric, swept grid, attack ×
protocol × defense series) lives in :mod:`repro.scenarios.catalog`, and each
function here just resolves the registered spec and runs it through
:func:`repro.scenarios.run_scenario`.  Outputs are bit-identical to the
historical hand-written drivers — the scenario compiler reproduces their
seed-derivation keys exactly, and the golden fixtures under ``tests/golden``
pin that equivalence.

The benchmark modules under ``benchmarks/`` call these and print the
resulting tables; EXPERIMENTS.md records how the shapes compare with the
paper.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.experiments.config import DEFAULT_CONFIG, EPSILONS, ExperimentConfig
from repro.experiments.runner import SweepResult

# NOTE: repro.scenarios is imported lazily inside the drivers.  The scenario
# subsystem builds on the experiment layer (config, runner, reporting), while
# this module is the experiment layer's figure-level facade over scenarios —
# a module-level import in either direction would be circular.

__all__ = [
    "community_labels",
    "table2_rows",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12a", "fig12b", "fig13a", "fig13b", "fig14", "fig15",
    "run_all",
]

#: Every figure scenario, in paper order (table2 is a stats scenario and
#: carries no tasks, so it is not part of the batched fan-out).
FIGURE_SCENARIOS = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12a", "fig12b", "fig13a", "fig13b", "fig14", "fig15",
)


def run_all(
    config: ExperimentConfig = DEFAULT_CONFIG,
    dataset: str = "",
    names: Sequence[str] = FIGURE_SCENARIOS,
):
    """Regenerate several figures as one heterogeneous engine batch.

    The session-backed counterpart of calling the per-figure drivers in a
    loop: every scenario compiles up front, distinct dataset surrogates are
    loaded and shared-memory-exported once, and all trials fan out over one
    persistent worker pool (``config.jobs``).  ``dataset`` retargets every
    scenario that supports it; empty keeps each scenario's own default.
    Returns an ordered ``{name: ScenarioResult}`` mapping, bit-identical to
    the individual drivers.
    """
    from repro.scenarios import get_scenario, run_scenarios

    specs = [get_scenario(name, dataset=dataset) for name in names]
    return run_scenarios(specs, config)


def community_labels(graph):
    """Greedy-modularity community labelling of the original graph.

    LF-GDPR's modularity estimator needs a server-held partition; the paper
    does not specify one, so we fix the standard greedy-modularity partition
    (see :func:`repro.scenarios.run.community_labels`).
    """
    from repro.scenarios.run import community_labels as _community_labels

    return _community_labels(graph)


def _sweep(name: str, dataset: str, config: ExperimentConfig) -> SweepResult:
    """Run a single-panel registered scenario and unwrap its sweep."""
    from repro.scenarios import get_scenario, run_scenario

    return run_scenario(get_scenario(name, dataset=dataset), config).sweep()


def _panels(
    name: str, dataset: str, config: ExperimentConfig, epsilons: Sequence[float]
) -> Dict[str, SweepResult]:
    """Run a protocol-comparison scenario; one sweep per protocol panel."""
    from repro.scenarios import get_scenario, run_scenario

    spec = get_scenario(name, dataset=dataset)
    if tuple(epsilons) != spec.values:
        spec = replace(spec, values=tuple(float(e) for e in epsilons))
    return dict(run_scenario(spec, config).panels)


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------
def table2_rows(config: ExperimentConfig = DEFAULT_CONFIG) -> List[Tuple[str, int, int, int, int]]:
    """(dataset, paper nodes, paper edges, surrogate nodes, surrogate edges)."""
    from repro.scenarios import get_scenario, run_scenario

    return list(run_scenario(get_scenario("table2"), config).table)


# ---------------------------------------------------------------------------
# Figs. 6-8: degree centrality (Exps 1-3)
# ---------------------------------------------------------------------------
def fig6(dataset: str, config: ExperimentConfig = DEFAULT_CONFIG) -> SweepResult:
    """Overall gains of attacks to degree centrality vs epsilon."""
    return _sweep("fig6", dataset, config)


def fig7(dataset: str, config: ExperimentConfig = DEFAULT_CONFIG) -> SweepResult:
    """Impact of beta on attacks to degree centrality."""
    return _sweep("fig7", dataset, config)


def fig8(dataset: str, config: ExperimentConfig = DEFAULT_CONFIG) -> SweepResult:
    """Impact of gamma on attacks to degree centrality."""
    return _sweep("fig8", dataset, config)


# ---------------------------------------------------------------------------
# Figs. 9-11: clustering coefficient (Exps 4-6)
# ---------------------------------------------------------------------------
def fig9(dataset: str, config: ExperimentConfig = DEFAULT_CONFIG) -> SweepResult:
    """Overall gains of attacks to clustering coefficient vs epsilon."""
    return _sweep("fig9", dataset, config)


def fig10(dataset: str, config: ExperimentConfig = DEFAULT_CONFIG) -> SweepResult:
    """Impact of beta on attacks to clustering coefficient."""
    return _sweep("fig10", dataset, config)


def fig11(dataset: str, config: ExperimentConfig = DEFAULT_CONFIG) -> SweepResult:
    """Impact of gamma on attacks to clustering coefficient."""
    return _sweep("fig11", dataset, config)


# ---------------------------------------------------------------------------
# Figs. 12-13: countermeasures (Exps 7-8)
# ---------------------------------------------------------------------------
def fig12a(config: ExperimentConfig = DEFAULT_CONFIG, dataset: str = "facebook") -> SweepResult:
    """Detect1/Naive1 against MGA on degree centrality vs threshold."""
    return _sweep("fig12a", dataset, config)


def fig12b(config: ExperimentConfig = DEFAULT_CONFIG, dataset: str = "facebook") -> SweepResult:
    """Detect2/Naive2 against RVA on degree centrality vs beta."""
    return _sweep("fig12b", dataset, config)


def fig13a(config: ExperimentConfig = DEFAULT_CONFIG, dataset: str = "facebook") -> SweepResult:
    """Detect1/Naive1 against MGA on clustering coefficient vs threshold."""
    return _sweep("fig13a", dataset, config)


def fig13b(config: ExperimentConfig = DEFAULT_CONFIG, dataset: str = "facebook") -> SweepResult:
    """Detect2/Naive2 against RVA on clustering coefficient vs beta."""
    return _sweep("fig13b", dataset, config)


# ---------------------------------------------------------------------------
# Figs. 14-15: LF-GDPR vs LDPGen (Exp 9)
# ---------------------------------------------------------------------------
def fig14(
    config: ExperimentConfig = DEFAULT_CONFIG,
    dataset: str = "facebook",
    epsilons: Sequence[float] = EPSILONS,
) -> Dict[str, SweepResult]:
    """Attacks on LF-GDPR and LDPGen: clustering coefficient vs epsilon."""
    return _panels("fig14", dataset, config, epsilons)


def fig15(
    config: ExperimentConfig = DEFAULT_CONFIG,
    dataset: str = "facebook",
    epsilons: Sequence[float] = EPSILONS,
) -> Dict[str, SweepResult]:
    """Attacks on LF-GDPR and LDPGen: modularity vs epsilon."""
    return _panels("fig15", dataset, config, epsilons)
