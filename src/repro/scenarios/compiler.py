"""Lowering scenario specs into engine task batches.

:func:`compile_scenario` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
plus a loaded graph into the flat list of
:class:`~repro.engine.tasks.TrialTask` the engine executes.  The compiler is
pure — same spec, graph and config always produce the same batch — and it is
the *only* place seed-derivation keys are built, so determinism is auditable
in one screen of code.

Seed-key compatibility
----------------------
Scenario runs must reproduce the pre-scenario figure drivers bit for bit, so
the compiler emits the exact historical key shapes:

* ``sweep`` style (Figs. 6-11, 14-15)::

      {figure}|{dataset}|{metric}|{series}|{parameter}={float(value)!r}|trial={trial}

* ``defense`` style (Figs. 12-13); the value component is the *original*
  grid number (ints stay ints), flat reference series carry no value
  component at all::

      {figure}|{series}|trial={trial}                         (flat)
      {figure}|{series}|{parameter}={value}|trial={trial}     (point sweep)
      {figure}|{series}|{sweep_arg}={value}|trial={trial}     (defense arg)

``tests/scenarios/test_compiler.py`` pins these shapes against the legacy
task builders.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.engine.tasks import (
    TrialTask,
    derive_trial_seed,
    graph_fingerprint,
    labels_fingerprint,
)
from repro.experiments.config import ExperimentConfig
from repro.graph.adjacency import Graph
from repro.scenarios.spec import (
    SWEEP_DEFENSE_ARG,
    SWEEP_FLAT,
    PanelSpec,
    ScenarioSpec,
    SeriesSpec,
)

#: Display value used for the single point of a flat reference series.
FLAT_VALUE = 0.0


def _point(config: ExperimentConfig, parameter: str, value) -> dict:
    """Protocol point (epsilon, beta, gamma) with ``parameter`` overridden.

    ``value`` is None for series the sweep does not reach (flat references,
    defense-argument sweeps): they stay at the config's Table III defaults.
    """
    point = {"epsilon": config.epsilon, "beta": config.beta, "gamma": config.gamma}
    if value is not None and parameter in point:
        point[parameter] = value
    return point


def _series_tasks(
    spec: ScenarioSpec,
    panel: PanelSpec,
    series: SeriesSpec,
    graph_key: str,
    labels_key: str,
    config: ExperimentConfig,
) -> List[TrialTask]:
    """All tasks of one series across the scenario's value grid."""
    if series.sweep == SWEEP_FLAT:
        grid = [None]  # one un-swept point
    else:
        grid = list(spec.values)

    tasks: List[TrialTask] = []
    for value in grid:
        defense_args = series.defense_args
        if series.sweep == SWEEP_FLAT:
            point = _point(config, spec.parameter, None)
            display_value = FLAT_VALUE
            key = f"{panel.figure}|{series.name}|trial={{trial}}"
        elif series.sweep == SWEEP_DEFENSE_ARG:
            point = _point(config, spec.parameter, None)
            display_value = float(value)
            defense_args = defense_args + ((series.sweep_arg, _coerce_arg(value)),)
            key = (
                f"{panel.figure}|{series.name}|{series.sweep_arg}={value}"
                "|trial={trial}"
            )
        elif spec.seed_style == "defense":
            point = _point(config, spec.parameter, value)
            display_value = float(value)
            key = f"{panel.figure}|{series.name}|{spec.parameter}={value}|trial={{trial}}"
        else:  # sweep style, point sweep — the historical attack-sweep key
            point = _point(config, spec.parameter, value)
            display_value = float(value)
            # float() first: the key must not depend on whether the value
            # is a Python float or a numpy scalar (whose repr changed
            # across numpy versions).
            key = (
                f"{panel.figure}|{spec.dataset}|{spec.metric}|{series.name}"
                f"|{spec.parameter}={float(value)!r}|trial={{trial}}"
            )
        for trial in range(config.trials):
            tasks.append(
                TrialTask(
                    graph_key=graph_key,
                    metric=spec.metric,
                    attack=series.attack,
                    protocol=series.protocol,
                    epsilon=float(point["epsilon"]),
                    beta=float(point["beta"]),
                    gamma=float(point["gamma"]),
                    seed=derive_trial_seed(config.seed, key.format(trial=trial)),
                    defense=series.defense,
                    defense_args=defense_args,
                    labels_key=labels_key,
                    figure=panel.figure,
                    series=series.name,
                    parameter=spec.parameter,
                    value=display_value,
                    trial=trial,
                )
            )
    return tasks


def _coerce_arg(value):
    """Swept defense arguments keep integer grids integral (Detect1 thresholds)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return float(value)


def compile_scenario(
    spec: ScenarioSpec,
    graph: Graph,
    config: ExperimentConfig,
    labels: Optional[np.ndarray] = None,
) -> List[TrialTask]:
    """The full engine batch of ``spec``: every (panel × series × value × trial).

    Flat reference series contribute ``config.trials`` tasks total (measured
    once, replicated across the grid at aggregation time), exactly as the
    historical Figs. 12-13 drivers batched them.

    Single-graph convenience over :func:`compile_panels`: every panel runs
    on ``graph``.  Scenarios whose panels pin their own datasets need one
    graph per panel — prepare them with
    :func:`repro.scenarios.run.prepare_scenario` instead.
    """
    if spec.kind != "sweep":
        raise ValueError(f"scenario {spec.name!r} ({spec.kind}) compiles to no tasks")
    pinned = {
        panel.dataset for panel in spec.panels if panel.dataset
    } - {spec.dataset}
    if pinned:
        raise ValueError(
            f"scenario {spec.name!r} pins per-panel datasets {sorted(pinned)}; "
            "compile it with per-panel graphs (compile_panels / prepare_scenario)"
        )
    return compile_panels(
        spec,
        config,
        graphs={panel.key: graph for panel in spec.panels},
        labels={panel.key: labels for panel in spec.panels},
    )


def compile_panels(
    spec: ScenarioSpec,
    config: ExperimentConfig,
    graphs: Mapping[str, Graph],
    labels: Mapping[str, Optional[np.ndarray]],
) -> List[TrialTask]:
    """Compile ``spec`` with one graph (and labelling) per panel key.

    The heterogeneous-batch entry point: each panel's tasks carry the
    fingerprint of *that panel's* graph, so panels pinned to different
    dataset surrogates lower into a single engine batch that a session can
    fan out in one go.  Seed keys are untouched — they never encoded the
    graph, only the figure/series coordinates — so single-dataset scenarios
    compile bit-identically to the historical single-graph path.
    """
    if spec.kind != "sweep":
        raise ValueError(f"scenario {spec.name!r} ({spec.kind}) compiles to no tasks")
    tasks: List[TrialTask] = []
    for panel in spec.panels:
        graph = graphs[panel.key]
        panel_labels = labels.get(panel.key)
        if spec.metric == "modularity" and panel_labels is None:
            raise ValueError(
                f"scenario {spec.name!r} needs community labels (modularity)"
            )
        graph_key = graph_fingerprint(graph)
        labels_key = labels_fingerprint(panel_labels)
        for series in panel.series:
            tasks.extend(
                _series_tasks(spec, panel, series, graph_key, labels_key, config)
            )
    return tasks
