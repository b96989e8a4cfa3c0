"""Protocol-facing interfaces shared by LF-GDPR and LDPGen.

A *protocol* collects two atomic metrics from every user — the adjacency bit
vector and the degree — and estimates graph metrics server-side.  An *attack*
replaces the reports of the users it controls with :class:`FakeReport`
objects; the protocol treats those as the submitted (already perturbed)
values, exactly as the paper's threat model prescribes (fake users "can send
arbitrary data to the central server").

Common-random-numbers evaluation: ``collect`` derives all genuine-user noise
from named child streams of the supplied seed, so calling it twice with the
same seed — once without overrides, once with them — changes *only* what the
attacker changed.  That pairing is what ``repro.core.gain`` relies on.

Shared-collection contract (``collect_paired``): because the honest-world
randomness is a pure function of the seed, a paired run never needs to *draw*
it twice.  :meth:`GraphLDPProtocol.collect_paired` materialises the honest
state once and manufactures after-views by applying overrides to that shared
state; the result is bit-identical to two ``collect`` calls with the same
seed by construction.

A paired run of a pair-level protocol holds the honest state plus the
attacker's edit, nothing more:

* an after-view's graph is the honest plane's *net edit*
  (:func:`apply_overrides_tracked`): its edge count and degrees are known
  at once, its codes are merged only when something reads them (a
  subgraph, a sparse-backend count) and counted as
  ``overrides.materialized`` on the current tracer;
* every view carries a :class:`PairedBaseline` with the net edge changes,
  from which estimators and defenses derive the after-view's packed plane
  (:func:`packed_plane`) and intra-community counts instead of recomputing
  them; a defense's repair is one more edit of the same plane;
* the honest intermediates (the one decode of the honest plane, the packed
  matrix, intra-community counts) are computed lazily, once per run, into
  the baseline's shared ``cache`` — the only place they are computed;
* no view refers back to itself, so a run is freed by reference counting
  as soon as its views are dropped.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, node_set
from repro.graph.metrics import paired_edge_arrays, paired_plane
from repro.telemetry.core import current_tracer
from repro.utils.rng import RngLike
from repro.utils.sparse import (
    decode_pairs,
    encode_pairs,
    merge_sorted_disjoint,
    reject_members,
    sorted_unique,
)


@dataclass(frozen=True)
class FakeReport:
    """The crafted submission of one fake user.

    Two crafting modes cover all the paper's attacks:

    * **replace** (``augment=False``, the default): the user's entire report
      is attacker-crafted — ``claimed_neighbors`` becomes its bit vector
      verbatim and ``reported_degree`` its degree value.  RVA and MGA work
      this way.
    * **augment** (``augment=True``): the user runs the *honest* protocol on
      its organic data (keeping the same perturbation noise as in the
      unattacked world) and the attacker merely injects extra claimed edges
      on top, shifting the degree report by ``degree_delta``.  This models
      RNA, which adds one edge to the local data and lets the LDP client
      perturb as usual — under common random numbers the only difference
      from the honest run is the crafted edge.  Any pre-perturbation of the
      extra edges (RNA flips them with the RR probabilities) is the
      attack's job before building the report.

    Attributes
    ----------
    claimed_neighbors:
        Replace mode: the full claimed bit vector.  Augment mode: extra
        edges added on top of the honest report.  A 1-D array of integer
        node ids (stored sorted and distinct); any other input raises a
        :class:`ValueError` naming ``claimed_neighbors``, except that an
        empty claim of any dtype is accepted.
    reported_degree:
        Replace mode: the degree value sent.  Ignored in augment mode.
    augment:
        Selects the mode.
    degree_delta:
        Augment mode: shift applied to the honest noisy degree report.
    """

    claimed_neighbors: np.ndarray
    reported_degree: float
    augment: bool = False
    degree_delta: float = 0.0

    def __post_init__(self):
        claims = np.asarray(self.claimed_neighbors)
        if claims.size == 0:
            neighbors = np.empty(0, dtype=np.int64)
        elif claims.ndim != 1:
            raise ValueError(
                f"claimed_neighbors must be a 1-D array of node ids, got shape {claims.shape}"
            )
        elif claims.dtype.kind not in "iu":
            raise ValueError(
                f"claimed_neighbors must hold integer node ids, "
                f"got {claims.dtype} value {claims[0]!r}"
            )
        else:
            # astype copies, so the in-place sort never touches the caller's array.
            neighbors = sorted_unique(claims.astype(np.int64))
        object.__setattr__(self, "claimed_neighbors", neighbors)


#: Mapping from fake-node id to its crafted report.
Overrides = Mapping[int, FakeReport]


@dataclass
class PairedBaseline:
    """Link from a paired-run view to the shared honest collection.

    Attached to the :class:`CollectedReports` of a
    :meth:`GraphLDPProtocol.collect_paired` run.  The honest view itself
    carries ``honest=None`` (it *is* the honest state, and a link to itself
    would make every run a reference cycle that only the cyclic garbage
    collector frees) with empty ``touched`` and edits; an after-view names
    the honest reports, and ``touched`` the rows the overrides may have
    changed.  Estimators treat this as an *optimisation hint only*: every
    quantity derived through it must be bit-identical to a from-scratch
    computation on the carrying reports, and ``touched=None`` (changes not
    localisable, e.g. LDPGen's regenerated synthetic graph) mandates a full
    recompute.

    Attributes
    ----------
    honest:
        The shared honest reports (the before-world view); ``None`` on the
        honest view itself.
    touched:
        Sorted ids of users whose adjacency rows may differ from the honest
        graph — a vertex cover of every changed pair.  ``None`` = unknown.
    added_codes / removed_codes:
        Net sorted pair codes of edges present only in this view / only in
        the honest graph.  ``None`` when not tracked.
    cache:
        Scratch shared by all views of one paired run: the decoded honest
        plane (``"edges"``), the packed honest matrix (``"bitmatrix"``) and
        intra-community counts (``"intra"``).  Never an after-view or its
        graph, which would keep them alive as long as the run.
    """

    honest: Optional["CollectedReports"]
    touched: Optional[np.ndarray]
    added_codes: Optional[np.ndarray] = None
    removed_codes: Optional[np.ndarray] = None
    cache: dict = field(default_factory=dict)


@dataclass
class CollectedReports:
    """Server-side view after one collection round.

    Attributes
    ----------
    perturbed_graph:
        The adjacency information the server holds: randomized-response
        output for pairs between non-overridden users, attacker-claimed bits
        for pairs involving overridden users.
    reported_degrees:
        Per-node degree reports (Laplace-perturbed for genuine users,
        attacker-chosen for fake users).
    adjacency_epsilon / degree_epsilon:
        The sub-budgets the reports were produced under.
    overridden:
        Ids of users whose reports were replaced by the attacker.  Stored for
        bookkeeping and for defense experiments; estimators never look at it
        (the server cannot distinguish fake users a priori).
    excluded:
        Ids of users a *defense* removed from the collection (their pairs are
        gone from ``perturbed_graph``).  Unlike ``overridden`` this is
        server-side knowledge: estimators must shrink the per-row bit count
        from ``N - 1`` to ``N - 1 - |excluded|`` and extrapolate, otherwise
        every removal shifts all degree estimates downward.  Stored as
        sorted distinct ids, validated against ``0..N-1``.
    baseline:
        Present only on the views of a paired run
        (:meth:`GraphLDPProtocol.collect_paired`): the shared honest state
        and the localisation of this view's changes, from which estimators
        derive this view's intermediates — a defense's repair included.
        Never part of equality or the server's knowledge model.
    """

    perturbed_graph: Graph
    reported_degrees: np.ndarray
    adjacency_epsilon: float
    degree_epsilon: float
    overridden: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    excluded: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    baseline: Optional[PairedBaseline] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        degrees = np.asarray(self.reported_degrees, dtype=np.float64)
        if degrees.shape != (self.perturbed_graph.num_nodes,):
            raise ValueError(
                f"reported_degrees has shape {degrees.shape}, expected "
                f"({self.perturbed_graph.num_nodes},) — one report per user"
            )
        self.reported_degrees = degrees
        self.excluded = node_set(self.excluded, self.perturbed_graph.num_nodes, "excluded")

    @property
    def num_nodes(self) -> int:
        """Total number of participating users N."""
        return self.perturbed_graph.num_nodes


def paired_edit(
    reports: CollectedReports,
) -> tuple[CollectedReports, Optional[MutableMapping], np.ndarray, np.ndarray]:
    """``(plane, cache, added_codes, removed_codes)``: a paired view's graph
    is its run's honest reports' graph (``plane``; the view itself on the
    honest view) edited by the net codes, with the run's shared ``cache``.
    Other reports are their own plane, with an empty edit and no cache."""
    base = reports.baseline
    if base is None or base.added_codes is None or base.removed_codes is None:
        empty = np.empty(0, dtype=np.int64)
        return reports, None, empty, empty
    plane = reports if base.honest is None else base.honest
    return plane, base.cache, base.added_codes, base.removed_codes


def packed_plane(reports: CollectedReports) -> Optional[BitMatrix]:
    """The packed matrix of ``reports``' graph (:func:`paired_plane`): a
    paired view's is its run's honest plane, packed once into the run's
    cache and patched with the view's edit; other reports are packed on
    their own.  ``None`` when packing would exceed the cap."""
    plane, cache, added, removed = paired_edit(reports)
    edits = None if plane is reports else (added, removed)
    return paired_plane(plane.perturbed_graph, {} if cache is None else cache, edits)


class GraphLDPProtocol(abc.ABC):
    """Interface of an LDP graph-collection protocol."""

    @abc.abstractmethod
    def collect(
        self, graph: Graph, rng: RngLike, overrides: Overrides | None = None
    ) -> CollectedReports:
        """Run one collection round and return the server-side reports.

        All genuine-user noise must derive from named child streams of
        ``rng``, so two calls with the same seed — with and without
        ``overrides`` — differ only by the attacker's action (the
        common-random-numbers contract :meth:`collect_paired` and
        ``repro.core.gain`` build on).
        """

    @abc.abstractmethod
    def collect_paired(self, graph: Graph, rng: RngLike) -> "PairedCollection":
        """One honest collection shared across before/after views.

        ``rng`` must be replayable (an ``int`` or ``SeedSequence``), because
        the paired contract is defined against re-running :meth:`collect`
        with the same seed.  Implementations materialise the honest
        randomness once and derive after-views by applying overrides to the
        shared state — bit-identical to two ``collect`` calls by
        construction, collected once.
        """

    def collect_paired_batch(
        self, graph: Graph, seeds: Sequence[RngLike]
    ) -> List["PairedCollection"]:
        """:meth:`collect_paired` per seed: the trials of one figure point.

        Protocols with a stackable collection override this to share the
        perturbation setup across trials.
        """
        return [self.collect_paired(graph, seed) for seed in seeds]

    @abc.abstractmethod
    def estimate_degree_centrality(self, reports: CollectedReports) -> np.ndarray:
        """Per-node degree-centrality estimates (Eq. 8 on estimated degrees)."""

    @abc.abstractmethod
    def estimate_clustering_coefficient(
        self, reports: CollectedReports, nodes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Clustering-coefficient estimates (Eqs. 15–17) at ``nodes`` (all: ``None``)."""

    @abc.abstractmethod
    def estimate_modularity(self, reports: CollectedReports, labels: np.ndarray) -> float:
        """Modularity estimate for a given community labelling."""


def _crafted_pair_codes(overrides: Overrides, num_nodes: int) -> np.ndarray:
    """Validated, deduplicated pair codes of every claimed (node, neighbor).

    Builds the full (node, neighbor) arrays in one shot and validates them
    with numpy masks instead of a per-edge python loop; error messages name
    the first offending fake user.
    """
    sizes = [report.claimed_neighbors.size for report in overrides.values()]
    total = sum(sizes)
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nodes = np.repeat(np.fromiter(overrides.keys(), dtype=np.int64, count=len(overrides)), sizes)
    neighbors = np.concatenate(
        [report.claimed_neighbors for report in overrides.values()]
    ).astype(np.int64, copy=False)
    self_loops = nodes == neighbors
    if self_loops.any():
        raise ValueError(f"fake user {int(nodes[self_loops][0])} claims a self-loop")
    out_of_range = (neighbors < 0) | (neighbors >= num_nodes)
    if out_of_range.any():
        position = int(np.flatnonzero(out_of_range)[0])
        raise ValueError(
            f"fake user {int(nodes[position])} claims out-of-range "
            f"neighbor {int(neighbors[position])}"
        )
    return sorted_unique(encode_pairs(nodes, neighbors, num_nodes))


def apply_overrides_tracked(
    perturbed: Graph, overrides: Overrides | None, cache: MutableMapping
) -> tuple[Graph, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`apply_overrides` that also reports the net edge changes.

    Returns ``(graph, overridden, added_codes, removed_codes)`` where the
    code arrays are the sorted pair codes present only in the result /
    only in ``perturbed``.  Both are incident to ``overridden`` by
    construction — the localisation guarantee paired estimators need.

    Only the net edit is computed: ``dropped`` (the honest pairs incident
    to replaced users), ``added = crafted - honest`` and
    ``removed = dropped - crafted``.  The result is a deferred graph
    (:meth:`Graph._deferred`): its edge count and degrees (the honest
    degrees plus the edit's bincounts) are set at once, and its codes,
    ``(honest - removed) + added``, are merged on the first read and counted
    as ``overrides.materialized`` on the tracer current at that read.
    ``cache`` is the paired run's scratch, whose one decode of ``perturbed``
    (:func:`repro.graph.metrics.paired_edge_arrays`) this reads; a fresh
    ``{}`` keeps the decode local to the call.
    """
    if not overrides:
        empty = np.empty(0, dtype=np.int64)
        return perturbed, empty, empty, empty

    overridden = np.sort(np.fromiter(overrides.keys(), dtype=np.int64))
    n = perturbed.num_nodes
    if overridden[0] < 0 or overridden[-1] >= n:
        raise ValueError("override node id out of range")

    replaced = np.array(
        [node for node, report in overrides.items() if not report.augment], dtype=np.int64
    )
    flags = np.zeros(n, dtype=bool)
    flags[replaced] = True
    rows, cols = paired_edge_arrays(perturbed, cache)
    honest_codes = perturbed.edge_codes
    # The decode is aligned with the codes, so a mask keeps them sorted.
    dropped = honest_codes[flags[rows] | flags[cols]]

    # Net changes: a crafted edge that coincides with a surviving RR pair is
    # no change at all, and one that re-creates a dropped pair cancels the
    # removal.  All code arrays are sorted and unique, so membership runs as
    # binary search and the deferred union as a disjoint merge.
    crafted = _crafted_pair_codes(overrides, n)
    added = reject_members(crafted, honest_codes)
    removed = reject_members(dropped, crafted)

    return edited_graph(perturbed, added, removed), overridden, added, removed


def edited_graph(plane: Graph, added: np.ndarray, removed: np.ndarray) -> Graph:
    """``(plane - removed) + added``, for sorted codes ``added`` disjoint
    from ``plane``'s and ``removed`` among them, as a deferred graph: see
    :func:`apply_overrides_tracked`."""
    n = plane.num_nodes
    plane_codes = plane.edge_codes

    def build() -> np.ndarray:
        current_tracer().counter("overrides.materialized")
        return merge_sorted_disjoint(reject_members(plane_codes, removed), added)

    result = Graph._deferred(n, plane.num_edges - removed.size + added.size, build)
    degrees = np.array(plane.degrees(), dtype=np.int64, copy=True)
    for codes, sign in ((added, 1), (removed, -1)):
        if codes.size:
            edit_rows, edit_cols = decode_pairs(codes, n)
            degrees += sign * (
                np.bincount(edit_rows, minlength=n) + np.bincount(edit_cols, minlength=n)
            )
    result._seed_degrees(degrees)
    return result


def apply_overrides(
    perturbed: Graph, overrides: Overrides | None
) -> tuple[Graph, np.ndarray]:
    """Replace overridden users' adjacency pairs with their claimed edges.

    Replace-mode reports control every pair incident to their user: the
    randomized-response bits for those pairs are dropped and the claimed
    edges inserted.  Augment-mode reports keep the user's RR pairs and only
    add the extra claimed edges (duplicates of surviving RR pairs are
    deduplicated — the graph is simple).  Pairs between two non-overridden
    users always keep their RR bits, which preserves common random numbers
    across paired runs: this is the invariant that makes the after-world of
    a shared honest collection (:meth:`GraphLDPProtocol.collect_paired`)
    bit-identical to an independent re-collection under the same seed.

    Returns the resulting graph — deferred, see
    :func:`apply_overrides_tracked` — and the sorted array of overridden ids.
    """
    result, overridden, _, _ = apply_overrides_tracked(perturbed, overrides, {})
    return result, overridden


def apply_degree_overrides(
    noisy_degrees: np.ndarray, overrides: Overrides | None
) -> np.ndarray:
    """Apply crafted degree reports (replace) or shifts (augment).

    Replace-mode reports substitute ``reported_degree`` verbatim;
    augment-mode reports shift the honest noisy report by exactly
    ``degree_delta``.  Vectorised over the override mapping (one fancy
    assignment per mode); because the honest noisy degrees are an input,
    the same array can serve every after-view of a shared collection.
    """
    result = np.array(noisy_degrees, dtype=np.float64, copy=True)
    if overrides:
        nodes = np.fromiter(overrides.keys(), dtype=np.int64, count=len(overrides))
        augment = np.fromiter(
            (report.augment for report in overrides.values()), dtype=bool, count=len(overrides)
        )
        if augment.any():
            deltas = np.fromiter(
                (float(report.degree_delta) for report in overrides.values()),
                dtype=np.float64,
                count=len(overrides),
            )
            result[nodes[augment]] += deltas[augment]
        if not augment.all():
            values = np.fromiter(
                (float(report.reported_degree) for report in overrides.values()),
                dtype=np.float64,
                count=len(overrides),
            )
            result[nodes[~augment]] = values[~augment]
    return result


def require_replayable_seed(rng: RngLike) -> RngLike:
    """Reject seeds the paired contract cannot replay.

    A live ``Generator`` advances on use and ``None`` means fresh entropy —
    either would give every view *different* honest randomness, silently
    unpairing the before/after comparison.
    """
    if rng is None or isinstance(rng, np.random.Generator):
        raise TypeError(
            "collect_paired needs a replayable seed (int or SeedSequence), "
            f"not {type(rng).__name__} — paired views must re-derive identical streams"
        )
    return rng


class PairedCollection(abc.ABC):
    """One honest collection exposed as a before-view plus after-views.

    ``before`` is the honest world; ``after(overrides)`` the attacked world
    under common random numbers.  Implementations guarantee both views are
    bit-identical to independent ``collect`` calls with the shared seed.
    """

    @property
    @abc.abstractmethod
    def before(self) -> CollectedReports:
        """The honest (before-world) reports."""

    @abc.abstractmethod
    def after(self, overrides: Overrides | None) -> CollectedReports:
        """An attacked after-view under the shared randomness."""


class SharedGraphPairedCollection(PairedCollection):
    """Paired views over one shared honest perturbed graph + degree vector.

    The shape used by pair-level protocols (LF-GDPR): the honest randomness
    lives entirely in ``honest.perturbed_graph`` and
    ``honest.reported_degrees``, and an after-view is a pure function of
    that state and the overrides (:func:`apply_overrides_tracked` +
    :func:`apply_degree_overrides`).  Every view carries a
    :class:`PairedBaseline`, so estimators can reuse honest intermediates
    and patch them with the view's net edits.  An after-view's graph is the
    deferred net edit of the honest plane, with seeded degrees: undefended
    estimators never build its codes.

    The run holds the honest reports and the shared cache only — no
    after-view, and no link from the honest view to itself — so it is
    freed by reference counting once its views are dropped.
    """

    def __init__(self, honest: CollectedReports):
        self._cache: dict = {}
        honest.baseline = PairedBaseline(
            honest=None,
            touched=np.empty(0, dtype=np.int64),
            added_codes=np.empty(0, dtype=np.int64),
            removed_codes=np.empty(0, dtype=np.int64),
            cache=self._cache,
        )
        self._before = honest

    @property
    def before(self) -> CollectedReports:
        return self._before

    def after(self, overrides: Overrides | None) -> CollectedReports:
        honest = self._before
        if not overrides:
            return honest
        graph, overridden, added, removed = apply_overrides_tracked(
            honest.perturbed_graph, overrides, self._cache
        )
        reported = apply_degree_overrides(honest.reported_degrees, overrides)
        return CollectedReports(
            perturbed_graph=graph,
            reported_degrees=reported,
            adjacency_epsilon=honest.adjacency_epsilon,
            degree_epsilon=honest.degree_epsilon,
            overridden=overridden,
            baseline=PairedBaseline(
                honest=honest,
                touched=overridden,
                added_codes=added,
                removed_codes=removed,
                cache=self._cache,
            ),
        )
