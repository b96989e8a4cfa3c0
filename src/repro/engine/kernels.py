"""The engine's one evaluation path: one kernel pass per figure point.

A compiled scenario batch lays its trials out innermost, so the cache-miss
tasks an executor receives arrive as runs of trials that differ *only* in
their derived seed.  :func:`execute_tasks_grouped` splits a single-graph
task list into those point groups and runs every group — singletons,
defended points and LDPGen included — through one
:meth:`~repro.protocols.base.GraphLDPProtocol.collect_paired_batch` call;
each run's honest intermediates are then computed lazily in its own paired
cache as the estimators ask for them; clustering counts triangles at the
targets only, on the honest plane and on its copy patched with the edits.

Bit-identity contract: per task, the kernel runs the same prologue
(:func:`~repro.core.gain.craft_trial`) and trial-scoring body
(:func:`~repro.core.gain.score_trial`) as ``evaluate_attack`` and
``evaluate_defended_attack``.  Batching only reorders draws *across*
independent streams and shares the perturbation setup, so gains, goldens
and cache entries equal those of one ``collect_paired`` per task — the
single-task reference the test suite (``tests/engine/test_kernels.py``)
holds the kernel to.  Each task keeps its own ``task.execute`` span; the
``kernel.batched`` counter counts tasks served.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gain import check_metric, craft_trial, score_trial, scored_targets
from repro.core.threat_model import ThreatModel
from repro.engine.registry import ATTACKS, DEFENSES, PROTOCOLS
from repro.engine.tasks import TrialTask
from repro.graph.adjacency import Graph
from repro.telemetry.core import current_tracer
from repro.utils.rng import child_rng


def point_key(task: TrialTask) -> Tuple:
    """The figure-point identity of a task: its identity minus the seed.

    Tasks sharing a point key are trials of one sweep point — the unit the
    batched kernels stack.  Mirrors ``IDENTITY_FIELDS`` so any field that
    changes what a task computes also splits the batch.
    """
    return (
        task.graph_key,
        task.metric,
        task.attack,
        task.protocol,
        task.epsilon,
        task.beta,
        task.gamma,
        task.defense,
        task.defense_args,
        task.labels_key,
    )


def group_by_point(tasks: Sequence[TrialTask]) -> List[List[int]]:
    """Task indices grouped by :func:`point_key`, input order preserved."""
    groups: "OrderedDict[Tuple, List[int]]" = OrderedDict()
    for index, task in enumerate(tasks):
        groups.setdefault(point_key(task), []).append(index)
    return list(groups.values())


def execute_tasks_grouped(
    tasks: Sequence[TrialTask],
    graph: Graph,
    labels: Optional[np.ndarray] = None,
) -> List[float]:
    """Gains of a single-graph task list, one kernel pass per point group.

    What every executor computes with, once per ``(graph_key,
    labels_key)`` group of a batch, in process or in a pool worker: output
    order matches input order, and every task is reported under its own
    ``task.execute`` span.
    """
    tracer = current_tracer()
    gains: List[float] = [0.0] * len(tasks)
    for indices in group_by_point(tasks):
        group = [tasks[index] for index in indices]
        tracer.counter("kernel.batched", len(group))
        for index, gain in zip(indices, _execute_point_batched(group, graph, labels)):
            gains[index] = gain
    return gains


def _execute_point_batched(
    tasks: Sequence[TrialTask],
    graph: Graph,
    labels: Optional[np.ndarray],
) -> List[float]:
    """All trials of one point through one batched collection.

    Phase one runs each task's threat sampling and
    :func:`~repro.core.gain.craft_trial` under its own ``task.execute``
    span and creates its defense, if any.  Phase two collects every trial
    at once.  Phase three scores each trial through
    :func:`~repro.core.gain.score_trial`.  Protocol construction is
    deterministic in epsilon and collection is stateless, so one protocol
    instance serves the point.
    """
    first = tasks[0]
    protocol = PROTOCOLS.create(first.protocol, epsilon=first.epsilon)
    metric = first.metric
    check_metric(metric, labels)
    tracer = current_tracer()
    crafted = []
    for task in tasks:
        with tracer.span(
            "task.execute",
            figure=task.figure, series=task.series, attack=task.attack,
            value=task.value, trial=task.trial,
        ):
            attack = ATTACKS.create(task.attack)
            threat = ThreatModel.sample(
                graph, task.beta, task.gamma, rng=child_rng(task.seed, "threat")
            )
            defense = (
                DEFENSES.create(task.defense, **dict(task.defense_args))
                if task.defense
                else None
            )
            overrides, protocol_seed = craft_trial(graph, protocol, attack, threat, task.seed)
            crafted.append((scored_targets(attack, threat), overrides, protocol_seed, defense))

    runs = protocol.collect_paired_batch(graph, [seed for _, _, seed, _ in crafted])
    gains = []
    for (targets, overrides, _, defense), run in zip(crafted, runs):
        before, after, _ = score_trial(
            protocol, run, overrides, metric, targets, labels, defense
        )
        gains.append(float(np.abs(after - before).sum()))
    return gains
