"""The declarative trial task spec and its stable content hash.

A :class:`TrialTask` describes one attack-gain measurement — one threat-model
draw of one attack against one protocol configuration on one graph — without
holding any live objects.  Attacks, protocols and defenses are referenced by
registry name; the graph by a content fingerprint.  This makes tasks:

* **hashable** — the identity fields feed a SHA-256 content hash that keys
  the on-disk result cache;
* **portable** — tasks pickle cheaply to process-pool workers;
* **deterministic** — each task carries its own derived integer seed, so its
  result is a pure function of the spec and the graph, independent of which
  executor runs it, in which order, or on how many workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Tuple, Union

import numpy as np

from repro.graph.adjacency import Graph
from repro.utils.rng import child_rng

#: Fields that define a task's identity (everything the result depends on).
#: The remaining fields are display coordinates used to place the result back
#: into a sweep table; they never influence the computation or the cache key.
IDENTITY_FIELDS = (
    "graph_key",
    "metric",
    "attack",
    "protocol",
    "epsilon",
    "beta",
    "gamma",
    "seed",
    "defense",
    "defense_args",
    "labels_key",
)


def derive_trial_seed(root_seed: int, key: str) -> int:
    """Deterministic per-task integer seed from a root seed and a string key.

    The key encodes the task's position in the experiment (figure, dataset,
    series, swept value, trial index), so every task gets an independent
    stream regardless of how many tasks run, in what order, or on how many
    processes — the property that makes serial and parallel runs
    bit-identical.
    """
    return int(child_rng(int(root_seed), key).integers(2**63 - 1))


def graph_fingerprint(graph: Graph) -> str:
    """Stable content fingerprint of a graph (node count + edge set).

    Used as the task's ``graph_key`` so cached results are only reused for
    the exact same graph, whichever dataset/scale/seed produced it.
    """
    rows, cols = graph.edge_arrays()
    digest = hashlib.sha256()
    digest.update(np.int64(graph.num_nodes).tobytes())
    digest.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(cols, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def labels_fingerprint(labels) -> str:
    """Stable fingerprint of a community labelling (empty string for none).

    Part of the task identity: two modularity evaluations on the same graph
    but under different labelings must never share a cache entry.
    """
    if labels is None:
        return ""
    array = np.ascontiguousarray(labels, dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(np.int64(array.size).tobytes())
    digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def identity_payload(task: "TrialTask") -> dict:
    """A task's identity fields as stored/compared on disk (tuples -> lists).

    The single definition the sharded store writes and validates entries
    against, so a stored identity compares equal to a live task's.
    """
    payload = dict(task.identity())
    payload["defense_args"] = [list(pair) for pair in task.defense_args]
    return payload


@dataclass(frozen=True)
class TrialTask:
    """One attack-gain measurement, fully described by values.

    Attributes
    ----------
    graph_key:
        :func:`graph_fingerprint` of the graph the task runs on (the graph
        itself travels out-of-band through the executor).
    metric:
        One of :data:`repro.core.gain.METRICS`.
    attack / protocol / defense:
        Registry names (:data:`~repro.engine.registry.ATTACKS`, ...).
        ``defense`` is empty for undefended evaluations.
    defense_args:
        Sorted ``(name, value)`` pairs passed to the defense factory
        (e.g. ``(("threshold", 100),)`` for Detect1).
    epsilon / beta / gamma:
        Protocol budget and threat-model fractions for this point.
    seed:
        Derived integer seed (:func:`derive_trial_seed`); encodes the trial
        index, so two trials of the same point differ only here.
    labels_key:
        :func:`labels_fingerprint` of the community labelling a modularity
        evaluation uses (empty when the metric needs no labels).
    figure / series / parameter / value / trial:
        Display coordinates — where the result lands in the sweep table.
        Excluded from the content hash.
    """

    graph_key: str
    metric: str
    attack: str
    protocol: str
    epsilon: float
    beta: float
    gamma: float
    seed: int
    defense: str = ""
    defense_args: Tuple[Tuple[str, Union[int, float, str]], ...] = ()
    labels_key: str = ""
    figure: str = ""
    series: str = ""
    parameter: str = ""
    value: float = 0.0
    trial: int = 0

    def identity(self) -> dict:
        """The identity fields as a plain dict (what the hash covers)."""
        return {
            name: getattr(self, name)
            for name in IDENTITY_FIELDS
        }

    def content_hash(self) -> str:
        """Stable SHA-256 hash of the identity fields (the cache key)."""
        canonical = json.dumps(
            identity_payload(self), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __post_init__(self):
        known = {spec.name for spec in fields(self)}
        missing = [name for name in IDENTITY_FIELDS if name not in known]
        if missing:  # pragma: no cover - guards future refactors
            raise AssertionError(f"IDENTITY_FIELDS out of sync: {missing}")
