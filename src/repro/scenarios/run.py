"""Running scenarios end to end: load, compile, execute, aggregate.

:func:`run_scenarios` is the one runner every consumer shares — the
``repro`` CLI (each paper artifact command included), the golden-result
harness, the benchmarks and :mod:`perfbench`.  It compiles any number of
scenarios into a single heterogeneous engine batch over one
:class:`~repro.engine.session.EngineSession`: every panel of every
scenario — including panels pinned to *different* dataset surrogates —
runs in one fan-out against the session's shared-memory graph store, so a
whole evaluation suite shares one worker pool and ships every distinct
graph exactly once.  :func:`run_scenario` is the same call on a batch of
one, and :func:`compile_batch` is the specs-to-batch step it shares with
the distributed ``repro worker``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.engine.executors import CacheLike
from repro.engine.session import EngineSession
from repro.engine.tasks import TrialTask
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import SweepResult
from repro.graph.adjacency import Graph
from repro.graph.datasets import load_dataset, lookup_spec
from repro.scenarios.compiler import FLAT_VALUE, compile_panels
from repro.scenarios.spec import SWEEP_FLAT, ScenarioSpec
from repro.telemetry.core import current_tracer


def load_scenario_graph(spec: ScenarioSpec, config: ExperimentConfig) -> Graph:
    """The default dataset surrogate a scenario runs on (panel pins aside)."""
    return load_dataset(spec.dataset, scale=config.scale, rng=config.seed)


def community_labels(graph: Graph) -> np.ndarray:
    """Greedy-modularity community labelling of the original graph.

    LF-GDPR's modularity estimator needs a server-held partition; the paper
    does not specify one, so we fix the standard greedy-modularity partition
    of the original graph, shared by every panel on the same dataset.
    """
    import networkx as nx

    communities = nx.algorithms.community.greedy_modularity_communities(
        graph.to_networkx()
    )
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    for community_id, members in enumerate(communities):
        labels[list(members)] = community_id
    return labels


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``panels`` maps panel keys to their :class:`SweepResult`; single-panel
    scenarios are unwrapped with :meth:`sweep`.  ``table`` holds the rows of
    a ``stats`` scenario (Table II) and is None otherwise.
    """

    spec: ScenarioSpec
    panels: "OrderedDict[str, SweepResult]" = field(default_factory=OrderedDict)
    table: Optional[List[Tuple]] = None

    def sweep(self) -> SweepResult:
        """The lone panel's sweep; raises if the scenario is multi-panel."""
        if len(self.panels) != 1:
            keys = ", ".join(self.panels) or "<none>"
            raise ValueError(
                f"scenario {self.spec.name!r} has panels {keys}; pick one explicitly"
            )
        return next(iter(self.panels.values()))

    def format(self) -> str:
        """All panels (or the stats table) rendered for the terminal."""
        if self.table is not None:
            return format_table(
                ["dataset", "paper nodes", "paper edges", "surrogate nodes", "surrogate edges"],
                self.table,
                title=self.spec.description or self.spec.name,
            )
        return "\n\n".join(panel.format() for panel in self.panels.values())


def _dataset_stats(spec: ScenarioSpec, config: ExperimentConfig) -> List[Tuple]:
    """Rows of a ``stats`` scenario: paper vs surrogate node/edge counts."""
    rows = []
    for name in spec.datasets or (spec.dataset,):
        dataset = lookup_spec(name)
        graph = load_dataset(name, scale=config.scale, rng=config.seed)
        rows.append(
            (name, dataset.paper_nodes, dataset.paper_edges, graph.num_nodes, graph.num_edges)
        )
    return rows


class PreparedScenario(NamedTuple):
    """A compiled sweep scenario ready to execute.

    ``graphs``/``labels`` are keyed by panel key (single-dataset scenarios
    map every panel to the same graph object); ``tasks`` is the flat engine
    batch.  Unpacks as a ``(graphs, labels, tasks)`` triple.
    """

    graphs: "OrderedDict[str, Graph]"
    labels: "OrderedDict[str, Optional[np.ndarray]]"
    tasks: List[TrialTask]


def prepare_scenario(spec: ScenarioSpec, config: ExperimentConfig) -> PreparedScenario:
    """Load every panel's graph, derive labels if needed, compile the batch.

    Distinct panels sharing a dataset share one graph load and labelling.
    :func:`compile_batch` calls it per scenario; the golden store and the
    benchmarks call it for the batch alone (its task identities and size).
    """
    graphs: "OrderedDict[str, Graph]" = OrderedDict()
    labels: "OrderedDict[str, Optional[np.ndarray]]" = OrderedDict()
    by_dataset: Dict[str, Graph] = {}
    labels_by_dataset: Dict[str, np.ndarray] = {}
    for panel in spec.panels:
        dataset = panel.dataset_or(spec.dataset)
        if dataset not in by_dataset:
            by_dataset[dataset] = load_dataset(
                dataset, scale=config.scale, rng=config.seed
            )
            if spec.metric == "modularity":
                labels_by_dataset[dataset] = community_labels(by_dataset[dataset])
        graphs[panel.key] = by_dataset[dataset]
        labels[panel.key] = labels_by_dataset.get(dataset)
    return PreparedScenario(graphs, labels, compile_panels(spec, config, graphs, labels))


def _aggregate(
    spec: ScenarioSpec, tasks: Sequence[TrialTask], gains: Sequence[float]
) -> ScenarioResult:
    """Fold a batch's per-task gains back into per-panel sweep curves."""
    by_point: Dict[Tuple[str, str, float], List[float]] = {}
    for task, gain in zip(tasks, gains):
        by_point.setdefault((task.figure, task.series, task.value), []).append(gain)

    tracer = current_tracer()
    result = ScenarioResult(spec=spec)
    for panel in spec.panels:
        sweep = SweepResult(
            figure=panel.figure,
            dataset=panel.dataset_or(spec.dataset),
            metric=spec.metric,
            parameter=spec.parameter,
            values=list(spec.values),
        )
        with tracer.span(
            "scenario.panel", figure=panel.figure, dataset=sweep.dataset
        ):
            for value in spec.values:
                for series in panel.series:
                    point = FLAT_VALUE if series.sweep == SWEEP_FLAT else float(value)
                    trials = by_point[(panel.figure, series.name, point)]
                    sweep.add_point(series.name, trials)
                    if tracer.enabled:
                        mean = sweep.series[series.name][-1]
                        stderr = sweep.stderr[series.name][-1]
                        with tracer.span(
                            "scenario.point",
                            figure=panel.figure,
                            series=series.name,
                            value=point,
                            mean=mean,
                            stderr=stderr,
                            trials=len(trials),
                        ):
                            pass
                        tracer.point_done(
                            panel.figure, series.name, point, mean, stderr, len(trials)
                        )
        result.panels[panel.key] = sweep
    return result


def compile_batch(
    specs: Sequence[ScenarioSpec],
    config: ExperimentConfig,
    add_graph: Callable[[Graph, Optional[np.ndarray]], object],
) -> "OrderedDict[str, List[TrialTask]]":
    """Prepare every sweep scenario of ``specs`` into one engine batch.

    Each scenario's graphs (and labels) are handed to ``add_graph`` — a
    session's :meth:`~repro.engine.session.EngineSession.add_graph` or a
    worker's :meth:`~repro.engine.graph_store.GraphStore.add` — and its
    compiled tasks are returned keyed by scenario name, in input order;
    concatenated they are the batch.  ``stats`` scenarios carry no tasks
    and are skipped.  Names must be unique.
    """
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in batch: {names}")
    tasks_by_name: "OrderedDict[str, List[TrialTask]]" = OrderedDict()
    for spec in specs:
        if spec.kind != "sweep":
            continue
        graphs, labels, tasks = prepare_scenario(spec, config)
        for key, graph in graphs.items():
            add_graph(graph, labels.get(key))
        tasks_by_name[spec.name] = tasks
    return tasks_by_name


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    config: ExperimentConfig = DEFAULT_CONFIG,
    session: Optional[EngineSession] = None,
    cache: Optional[CacheLike] = None,
) -> "OrderedDict[str, ScenarioResult]":
    """Execute scenarios as **one** heterogeneous engine batch.

    Every sweep scenario is compiled up front, every distinct graph is
    registered (and shared-memory exported) once, and all tasks fan out in
    a single :meth:`~repro.engine.session.EngineSession.run` — so panels
    and scenarios parallelise against each other instead of running back to
    back.  Results are keyed by scenario name, in input order, and are
    bit-identical for any grouping of scenarios, session, worker count or
    cache state, because every compiled task derives its own seed.

    Without ``session`` the batch runs in an ephemeral session sized by
    ``config.jobs`` with ``config.cache`` semantics, closed on return; pass
    one to share a pool, graph store and cache across calls.  ``cache``
    overrides the cache either way — ``scenario run`` passes its own
    :class:`~repro.engine.result_store.ShardedResultStore` here so it can
    report reuse counts and non-durable results afterwards.
    """
    specs = list(specs)
    with current_tracer().span(
        "scenario.run", scenarios=[spec.name for spec in specs]
    ) as run_span:
        owned = EngineSession.from_config(config, cache=cache) if session is None else None
        live_session = owned or session
        try:
            tasks_by_name = compile_batch(specs, config, live_session.add_graph)
            batch = [task for tasks in tasks_by_name.values() for task in tasks]
            run_span.set(tasks=len(batch))
            gains = live_session.run(batch, cache=cache) if batch else []
        finally:
            if owned is not None:
                owned.close()

        results: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        offset = 0
        for spec in specs:
            if spec.kind == "stats":
                results[spec.name] = ScenarioResult(
                    spec=spec, table=_dataset_stats(spec, config)
                )
                continue
            tasks = tasks_by_name[spec.name]
            results[spec.name] = _aggregate(spec, tasks, gains[offset : offset + len(tasks)])
            offset += len(tasks)
    return results


def run_scenario(
    spec: ScenarioSpec,
    config: ExperimentConfig = DEFAULT_CONFIG,
    cache: Optional[CacheLike] = None,
    session: Optional[EngineSession] = None,
) -> ScenarioResult:
    """Execute one scenario: :func:`run_scenarios` on a batch of one."""
    return run_scenarios([spec], config, session=session, cache=cache)[spec.name]
