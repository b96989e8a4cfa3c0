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

A repair composes its removal and redrawn pairs, as sorted int64 pair
codes, with the edit the graph already is of its plane
(:attr:`repro.graph.adjacency.Graph.edit`), and returns
``plane.edited(added, removed)``: its degrees are set at once and its codes
merged only if read.  A repaired paired view keeps its run's ``cache``, so
defended estimation reads the run's plane like the undefended after-view.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.metrics import edge_density, paired_edge_arrays
from repro.protocols.base import CollectedReports
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sparse import (
    decode_pairs,
    encode_pairs,
    merge_sorted_disjoint,
    reject_members,
    sorted_union,
    sorted_unique,
)


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


def _stripped_edit(reports: CollectedReports, flagged: np.ndarray) -> tuple:
    """``reports``' graph as ``(plane, added, removed)`` (:attr:`Graph.edit`),
    composed with the removal of every pair incident to ``flagged``, read
    from the plane's decode and the edit (the graph's own codes are never
    merged)."""
    plane, added, removed = reports.perturbed_graph.edit
    n = plane.num_nodes
    mask = np.zeros(n, dtype=bool)
    mask[flagged] = True
    cache = reports.cache
    rows, cols = plane.edge_arrays() if cache is None else paired_edge_arrays(plane, cache)
    # The decode is aligned with the codes, so a mask keeps them sorted.
    incident = plane.edge_codes[mask[rows] | mask[cols]]
    added_rows, added_cols = decode_pairs(added, n)
    added = added[~(mask[added_rows] | mask[added_cols])]
    removed = merge_sorted_disjoint(removed, reject_members(incident, removed))
    return plane, added, removed


def _repaired(reports: CollectedReports, edit: tuple, excluded: np.ndarray) -> CollectedReports:
    """``reports`` with the graph ``edit = (plane, added, removed)``; a
    paired view keeps its run's cache."""
    plane, added, removed = edit
    return CollectedReports(
        perturbed_graph=plane.edited(added, removed),
        reported_degrees=reports.reported_degrees,
        adjacency_epsilon=reports.adjacency_epsilon,
        degree_epsilon=reports.degree_epsilon,
        overridden=reports.overridden,
        excluded=excluded,
        cache=reports.cache,
    )


def remove_flagged_pairs(reports: CollectedReports, flagged: np.ndarray) -> CollectedReports:
    """Removal repair: drop every pair incident to a flagged user.

    The flagged users are recorded in ``excluded`` so estimators calibrate
    against the reduced bit universe instead of reading the removal as a
    global degree drop.
    """
    flagged = _flagged_ids(flagged, reports.num_nodes)
    if flagged.size == 0:
        return reports
    return _repaired(
        reports, _stripped_edit(reports, flagged), sorted_union(reports.excluded, flagged)
    )


def resample_flagged_rows(
    reports: CollectedReports, flagged: np.ndarray, rng: RngLike = None
) -> CollectedReports:
    """Reconstruction repair: redraw flagged users' pairs at ambient density.

    Pairs between two flagged users are drawn once (not twice).  Genuine
    flagged users lose their real data: the false-positive cost of the
    repair.  That this cost shapes Fig. 12(a) into a U is unverified:
    Detect1's measured curve over the threshold is flat (see the
    defended-baseline item in ROADMAP.md).
    """
    num_nodes = reports.num_nodes
    flagged = _flagged_ids(flagged, num_nodes)
    if flagged.size == 0:
        return reports
    generator = ensure_rng(rng)
    density = edge_density(reports.perturbed_graph)
    plane, added, removed = _stripped_edit(reports, flagged)

    # Process flagged nodes in order, unmasking each once it is drawn, so a
    # flagged-flagged pair is drawn exactly once (by the later node).
    mask = np.zeros(num_nodes, dtype=bool)
    mask[flagged] = True
    partners = []
    for node in flagged.tolist():
        mask[node] = True
        others = np.flatnonzero(~mask)
        partners.append(others[generator.random(others.size) < density])
        mask[node] = False
    sizes = [draws.size for draws in partners]

    # A duplicated flagged id can redraw a pair, so dedupe the new codes.
    # They touch flagged users only, so they are disjoint from ``added``;
    # one that redraws a plane pair cancels its removal instead.
    new_codes = sorted_unique(
        encode_pairs(np.repeat(flagged, sizes), np.concatenate(partners), num_nodes)
    )
    added = merge_sorted_disjoint(added, reject_members(new_codes, plane.edge_codes))
    removed = reject_members(removed, new_codes)
    return _repaired(reports, (plane, added, removed), reports.excluded)
