"""Defense interface and the shared repair strategies.

A countermeasure is a server-side post-processing step: given the collected
reports it (i) *detects* suspicious users and (ii) *repairs* the data before
estimation.  Two repair strategies cover the paper's countermeasures:

* **removal** (§VII-B, Detect2): drop every adjacency pair incident to a
  flagged user — "remove its connections from the nodes it claims to be
  connected to".
* **reconstruction** (§VII-A, Detect1): rebuild flagged users' rows.  The
  paper reconstructs from the reports of genuine nodes connected to the
  flagged node; with symmetric pair-level collection that information is not
  separately available, so the statistically equivalent reconstruction is a
  fresh draw at the perturbed graph's edge density (what an honest RR row
  looks like to the server a priori).  See the paper's §VII-A for the
  reconstruction this stands in for.

Both repairs stay in sorted int64 pair codes end to end: removal masks the
graph's code array, reconstruction merges the redrawn pairs' codes into it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.metrics import edge_density
from repro.protocols.base import CollectedReports
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sparse import encode_pairs, merge_sorted_disjoint, sorted_unique


class Defense(abc.ABC):
    """A detection + repair countermeasure."""

    #: Short name used in experiment tables ("Detect1", "Naive2", ...).
    name: str = "defense"

    @abc.abstractmethod
    def detect(self, reports: CollectedReports) -> np.ndarray:
        """Return the sorted ids of users flagged as fake."""

    @abc.abstractmethod
    def repair(self, reports: CollectedReports, flagged: np.ndarray) -> CollectedReports:
        """Return repaired reports with the flagged users' influence undone."""

    def apply(self, reports: CollectedReports) -> Tuple[CollectedReports, np.ndarray]:
        """Detect then repair; returns (repaired reports, flagged ids)."""
        flagged = self.detect(reports)
        return self.repair(reports, flagged), flagged

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class DetectionQuality:
    """Precision/recall of a detector against the known fake set."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """Fraction of flagged users that are actually fake."""
        flagged = self.true_positives + self.false_positives
        return self.true_positives / flagged if flagged else 0.0

    @property
    def recall(self) -> float:
        """Fraction of fake users that were flagged."""
        fakes = self.true_positives + self.false_negatives
        return self.true_positives / fakes if fakes else 0.0


def detection_quality(flagged: np.ndarray, fake_users: np.ndarray) -> DetectionQuality:
    """Score a detector's output against the ground-truth fake set."""
    flagged = np.asarray(flagged, dtype=np.int64)
    fake_users = np.asarray(fake_users, dtype=np.int64)
    true_positives = int(np.intersect1d(flagged, fake_users).size)
    return DetectionQuality(
        true_positives=true_positives,
        false_positives=int(flagged.size - true_positives),
        false_negatives=int(fake_users.size - true_positives),
    )


def _flagged_ids(flagged, num_nodes: int) -> np.ndarray:
    """Validate repair input: a 1-D array of integer node ids in range.

    Empty, unsorted and duplicated ids are accepted as they are; anything
    else that would index the node mask wrongly (a negative id silently
    wraps) raises a ``ValueError`` naming ``flagged``.
    """
    ids = np.asarray(flagged)
    if ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"flagged must be a 1-D array of node ids, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"flagged must hold integer node ids, got {ids.dtype} value {ids[0]!r}")
    ids = ids.astype(np.int64, copy=False)
    bad = ids[(ids < 0) | (ids >= num_nodes)]
    if bad.size:
        raise ValueError(f"flagged holds node id {int(bad[0])}, outside 0..{num_nodes - 1}")
    return ids


def remove_flagged_pairs(reports: CollectedReports, flagged: np.ndarray) -> CollectedReports:
    """Removal repair: drop every pair incident to a flagged user.

    The flagged users are recorded in ``excluded`` so estimators calibrate
    against the reduced bit universe instead of reading the removal as a
    global degree drop.
    """
    graph = reports.perturbed_graph
    flagged = _flagged_ids(flagged, graph.num_nodes)
    if flagged.size == 0:
        return reports
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[flagged] = True
    rows, cols = graph.edge_arrays()
    keep = ~(mask[rows] | mask[cols])
    # A mask over sorted unique codes keeps them sorted and unique.
    repaired = Graph.from_codes(
        graph.num_nodes, graph.edge_codes[keep], assume_sorted_unique=True
    )
    return CollectedReports(
        perturbed_graph=repaired,
        reported_degrees=reports.reported_degrees,
        adjacency_epsilon=reports.adjacency_epsilon,
        degree_epsilon=reports.degree_epsilon,
        overridden=reports.overridden,
        excluded=np.union1d(reports.excluded, flagged),
    )


def resample_flagged_rows(
    reports: CollectedReports, flagged: np.ndarray, rng: RngLike = None
) -> CollectedReports:
    """Reconstruction repair: redraw flagged users' pairs at ambient density.

    Pairs between two flagged users are drawn once (not twice).  Genuine
    flagged users lose their real data — the false-positive cost that drives
    the U-shape of Fig. 12(a).
    """
    graph = reports.perturbed_graph
    num_nodes = graph.num_nodes
    flagged = _flagged_ids(flagged, num_nodes)
    if flagged.size == 0:
        return reports
    generator = ensure_rng(rng)
    density = edge_density(graph)
    stripped = remove_flagged_pairs(reports, flagged).perturbed_graph

    # Process flagged nodes in order, unmasking each as it is handled, so a
    # flagged-flagged pair is drawn exactly once (by the later node).
    mask = np.zeros(num_nodes, dtype=bool)
    mask[flagged] = True
    drawn = []
    for node in flagged.tolist():
        mask[node] = False
        others = np.flatnonzero(~mask)
        others = others[others != node]
        draws = others[generator.random(others.size) < density]
        drawn.append(encode_pairs(np.full(draws.size, node), draws, num_nodes))

    # A duplicated flagged id can redraw a pair, so dedupe the new codes; they
    # are disjoint from the stripped graph, whose pairs touch no flagged node.
    new_codes = sorted_unique(np.concatenate(drawn))
    repaired = Graph.from_codes(
        num_nodes,
        merge_sorted_disjoint(stripped.edge_codes, new_codes),
        assume_sorted_unique=True,
    )
    return CollectedReports(
        perturbed_graph=repaired,
        reported_degrees=reports.reported_degrees,
        adjacency_epsilon=reports.adjacency_epsilon,
        degree_epsilon=reports.degree_epsilon,
        overridden=reports.overridden,
        excluded=reports.excluded,
    )
