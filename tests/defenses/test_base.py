"""Tests for the defense interface helpers and repair strategies."""

import numpy as np
import pytest

from repro import DEFENSES
from repro.defenses.base import (
    detection_quality,
    remove_flagged_pairs,
    resample_flagged_rows,
)
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import MAX_PACKED_BYTES_ENV
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.metrics import edge_density
from repro.protocols.base import CollectedReports, FakeReport, packed_plane
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.telemetry.core import Tracer, use_tracer
from repro.utils.sparse import pair_count


@pytest.fixture
def reports():
    graph = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)])
    return CollectedReports(
        perturbed_graph=graph,
        reported_degrees=np.full(8, 2.0),
        adjacency_epsilon=2.0,
        degree_epsilon=2.0,
    )


class TestDetectionQuality:
    def test_perfect(self):
        quality = detection_quality(np.array([1, 2]), np.array([1, 2]))
        assert quality.precision == 1.0
        assert quality.recall == 1.0

    def test_partial(self):
        quality = detection_quality(np.array([1, 3]), np.array([1, 2]))
        assert quality.precision == 0.5
        assert quality.recall == 0.5

    def test_empty_flagged(self):
        quality = detection_quality(np.array([]), np.array([1]))
        assert quality.precision == 0.0
        assert quality.recall == 0.0

    def test_no_fakes(self):
        quality = detection_quality(np.array([1]), np.array([]))
        assert quality.recall == 0.0


class TestRemoveFlaggedPairs:
    def test_removes_incident_pairs(self, reports):
        repaired = remove_flagged_pairs(reports, np.array([0]))
        assert not repaired.perturbed_graph.has_edge(0, 1)
        assert not repaired.perturbed_graph.has_edge(0, 7)
        assert repaired.perturbed_graph.has_edge(1, 2)

    def test_no_flagged_is_identity(self, reports):
        assert remove_flagged_pairs(reports, np.array([], dtype=np.int64)) is reports

    def test_original_untouched(self, reports):
        remove_flagged_pairs(reports, np.array([0]))
        assert reports.perturbed_graph.has_edge(0, 1)

    def test_budgets_preserved(self, reports):
        repaired = remove_flagged_pairs(reports, np.array([0]))
        assert repaired.adjacency_epsilon == reports.adjacency_epsilon
        assert repaired.degree_epsilon == reports.degree_epsilon


class TestResampleFlaggedRows:
    def test_old_claims_gone(self, reports):
        repaired = resample_flagged_rows(reports, np.array([0]), rng=0)
        # Old edges may coincidentally be redrawn; run a few seeds and check
        # the redraw is density-driven, not claim-preserving.
        redraw_hits = 0
        for seed in range(20):
            repaired = resample_flagged_rows(reports, np.array([0]), rng=seed)
            redraw_hits += repaired.perturbed_graph.has_edge(0, 1)
        # density = 8/28 ~ 0.29 -> expect ~6 hits, far from 20.
        assert redraw_hits < 15

    def test_density_preserved_roughly(self, reports):
        degrees = []
        for seed in range(50):
            repaired = resample_flagged_rows(reports, np.array([0]), rng=seed)
            degrees.append(repaired.perturbed_graph.degree(0))
        from repro.graph.metrics import edge_density

        expected = edge_density(reports.perturbed_graph) * 7
        assert np.mean(degrees) == pytest.approx(expected, rel=0.4)

    def test_flagged_pair_drawn_once(self, reports):
        # Resampling two flagged users must not crash or double-add pairs.
        repaired = resample_flagged_rows(reports, np.array([0, 1]), rng=0)
        assert repaired.perturbed_graph.num_nodes == 8

    def test_deterministic(self, reports):
        a = resample_flagged_rows(reports, np.array([0]), rng=3)
        b = resample_flagged_rows(reports, np.array([0]), rng=3)
        assert a.perturbed_graph == b.perturbed_graph

    def test_no_flagged_identity(self, reports):
        assert resample_flagged_rows(reports, np.array([], dtype=np.int64)) is reports


def _reference_remove(reports, flagged):
    """The tuple-list removal repair the array-native one replaced."""
    flagged = np.asarray(flagged, dtype=np.int64)
    if flagged.size == 0:
        return reports
    graph = reports.perturbed_graph
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[flagged] = True
    rows, cols = graph.edge_arrays()
    keep = ~(mask[rows] | mask[cols])
    repaired = Graph(graph.num_nodes, zip(rows[keep].tolist(), cols[keep].tolist()))
    return CollectedReports(
        perturbed_graph=repaired,
        reported_degrees=reports.reported_degrees,
        adjacency_epsilon=reports.adjacency_epsilon,
        degree_epsilon=reports.degree_epsilon,
        overridden=reports.overridden,
        excluded=np.union1d(reports.excluded, flagged),
    )


def _reference_resample(reports, flagged, rng):
    """The tuple-list reconstruction repair the array-native one replaced."""
    flagged = np.asarray(flagged, dtype=np.int64)
    if flagged.size == 0:
        return reports
    graph = reports.perturbed_graph
    density = edge_density(graph)
    stripped = _reference_remove(reports, flagged).perturbed_graph
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[flagged] = True
    new_edges = []
    for node in flagged.tolist():
        mask[node] = False
        others = np.flatnonzero(~mask)
        others = others[others != node]
        draws = others[rng.random(others.size) < density]
        new_edges.extend((node, int(other)) for other in draws)
    return CollectedReports(
        perturbed_graph=stripped.with_edges(new_edges),
        reported_degrees=reports.reported_degrees,
        adjacency_epsilon=reports.adjacency_epsilon,
        degree_epsilon=reports.degree_epsilon,
        overridden=reports.overridden,
        excluded=reports.excluded,
    )


def _random_reports(n, density, seed):
    rng = np.random.default_rng(seed)
    codes = np.flatnonzero(rng.random(pair_count(n)) < density)
    return CollectedReports(
        perturbed_graph=Graph.from_codes(n, codes),
        reported_degrees=np.zeros(n),
        adjacency_epsilon=1.0,
        degree_epsilon=1.0,
        excluded=np.array([n - 1]) if n > 2 else np.empty(0, dtype=np.int64),
    )


def _flagged_cases(graph):
    """Empty, one node, every node, adjacent, unsorted and duplicated ids."""
    n = graph.num_nodes
    cases = [np.empty(0, dtype=np.int64)]
    if n == 0:
        return cases
    cases += [np.array([n // 2]), np.arange(n)]
    if n >= 2:
        cases.append(np.array([n - 1, 0]))
        cases.append(np.array([1, 0, 1, 1]))
    if graph.num_edges:
        rows, cols = graph.edge_arrays()
        cases.append(np.array([rows[0], cols[0]]))  # a flagged-flagged edge
        cases.append(np.unique(np.concatenate([rows[:5], cols[:5]])))
    if n >= 8:
        cases.append(np.array([7, 3, 5, 3, 0, 7]))
    return cases


_GRID = [
    (n, density, seed)
    for n in (0, 1, 2, 64, 65)
    for density in (0.01, 0.1, 0.5, 0.9)
    for seed in (0, 1)
] + [(64, 0.0, 0)]  # a graph with no edges


def _assert_same_reports(actual, expected):
    assert np.array_equal(
        actual.perturbed_graph.edge_codes, expected.perturbed_graph.edge_codes
    )
    assert np.array_equal(actual.excluded, expected.excluded)
    assert np.array_equal(
        actual.perturbed_graph.degrees(), expected.perturbed_graph.degrees()
    )


class TestReferenceEquivalence:
    """Array-native repairs match the tuple-list ones they replaced."""

    @pytest.mark.parametrize("n, density, seed", _GRID)
    def test_remove_matches_reference(self, n, density, seed):
        reports = _random_reports(n, density, seed)
        for flagged in _flagged_cases(reports.perturbed_graph):
            _assert_same_reports(
                remove_flagged_pairs(reports, flagged), _reference_remove(reports, flagged)
            )

    @pytest.mark.parametrize("n, density, seed", _GRID)
    def test_resample_matches_reference_and_stream(self, n, density, seed):
        reports = _random_reports(n, density, seed)
        for flagged in _flagged_cases(reports.perturbed_graph):
            rng = np.random.default_rng(seed)
            reference_rng = np.random.default_rng(seed)
            _assert_same_reports(
                resample_flagged_rows(reports, flagged, rng=rng),
                _reference_resample(reports, flagged, reference_rng),
            )
            assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestFlaggedValidation:
    """Both repairs reject ids that would index the node mask wrongly."""

    @pytest.mark.parametrize("repair", [remove_flagged_pairs, resample_flagged_rows])
    @pytest.mark.parametrize(
        "flagged, offending",
        [
            ([-1], "-1"),
            ([0, 8], "8"),
            ([[0, 1]], r"\(1, 2\)"),
            (np.array([0.5]), "0.5"),
            (np.array([True, False]), "True"),
        ],
    )
    def test_rejected(self, reports, repair, flagged, offending):
        with pytest.raises(ValueError, match=rf"flagged.*{offending}"):
            repair(reports, flagged)

    @pytest.mark.parametrize("repair", [remove_flagged_pairs, resample_flagged_rows])
    def test_empty_of_any_dtype_is_identity(self, reports, repair):
        assert repair(reports, []) is reports
        assert repair(reports, np.array([])) is reports


def _attacked_views(epsilon):
    """A paired after-view, its run's honest view and the plain ``collect``
    of the same attacked world (n = 90, 4 fakes replacing their rows)."""
    graph = powerlaw_cluster_graph(90, 3, 0.5, rng=0)
    protocol = LFGDPRProtocol(epsilon=epsilon)
    overrides = {
        fake: FakeReport(claimed_neighbors=np.array(claims), reported_degree=3.0)
        for fake, claims in (
            (2, [5, 9, 11, 40]),
            (7, [2, 30, 5]),  # claims fake 2
            (50, [9, 11, 60, 61, 62]),
            (61, []),
        )
    }
    run = protocol.collect_paired(graph, 11)
    return run, run.after(overrides), protocol.collect(graph, 11, overrides)


def _edit_flagged_cases(n):
    """Empty, unsorted with duplicates, intersecting the overridden users,
    holding flagged-flagged pairs (fakes 2 and 7 claim each other) and
    every node."""
    return [
        np.empty(0, dtype=np.int64),
        np.array([33, 4, 33, 18, 4]),
        np.array([50, 3, 7]),
        np.array([2, 7, 5, 9]),
        np.arange(n),
    ]


def _scratch_copy(reports):
    """``reports`` outside any run: no cache, its graph the built codes."""
    return CollectedReports(
        perturbed_graph=Graph.from_codes(
            reports.num_nodes, np.array(reports.perturbed_graph.edge_codes)
        ),
        reported_degrees=reports.reported_degrees,
        adjacency_epsilon=reports.adjacency_epsilon,
        degree_epsilon=reports.degree_epsilon,
        overridden=reports.overridden,
    )


#: Arguments under which each registered defense flags users of
#: :func:`_attacked_views`' after-view (the defaults do for the others).
_FLAGGING_ARGUMENTS = {"detect1": {"threshold": 1, "item_support": 10, "pair_support": 5}}


def _assert_edit_matches_scratch(repaired, expected):
    """Seeded degrees and edge count before the build, then the codes."""
    graph = repaired.perturbed_graph
    with use_tracer(Tracer()) as tracer:
        num_edges, degrees = graph.num_edges, np.array(graph.degrees())
        assert tracer.counters.get("overrides.materialized", 0) == 0
    assert num_edges == expected.perturbed_graph.num_edges
    assert np.array_equal(degrees, expected.perturbed_graph.degrees())
    assert np.array_equal(graph.edge_codes, expected.perturbed_graph.edge_codes)
    assert np.array_equal(repaired.excluded, expected.excluded)
    assert np.array_equal(repaired.overridden, expected.overridden)


class TestEditRepairs:
    """A repair is an edit of the view it repairs, equal to a from-scratch
    repair (``_reference_remove`` / ``_reference_resample``) of the same
    reports, draw for draw."""

    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    @pytest.mark.parametrize("view", ["after", "honest", "plain"])
    def test_repairs_equal_scratch_repairs(self, epsilon, view):
        run, after, plain = _attacked_views(epsilon)
        reports = {"after": after, "honest": run.before, "plain": plain}[view]
        scratch = _scratch_copy(reports)
        for flagged in _edit_flagged_cases(reports.num_nodes):
            _assert_edit_matches_scratch(
                remove_flagged_pairs(reports, flagged), _reference_remove(scratch, flagged)
            )
            rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
            _assert_edit_matches_scratch(
                resample_flagged_rows(reports, flagged, rng=rng),
                _reference_resample(scratch, flagged, reference_rng),
            )
            assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("name", DEFENSES.names())
    def test_a_repaired_paired_view_stays_a_view_of_its_run(self, name):
        """Every registered defense's repair of an after-view is an edit of
        the run's honest plane, keeps the run's cache, and merges to the
        codes of the same repair of a cache-free copy of the view."""
        run, after, _ = _attacked_views(2.0)
        defense = DEFENSES.create(name, **_FLAGGING_ARGUMENTS.get(name, {}))
        repaired, flagged = defense.apply(after)
        assert flagged.size > 0
        plane, added, removed = repaired.perturbed_graph.edit
        assert plane is run.before.perturbed_graph
        assert repaired.cache is run.before.cache
        assert np.intersect1d(added, plane.edge_codes).size == 0
        assert np.setdiff1d(removed, plane.edge_codes).size == 0
        merged = np.union1d(np.setdiff1d(plane.edge_codes, removed), added)
        scratch = defense.repair(_scratch_copy(after), flagged)
        assert np.array_equal(merged, scratch.perturbed_graph.edge_codes)

    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    @pytest.mark.parametrize("cap", [None, "1600"])
    def test_defended_estimates_equal_scratch(self, monkeypatch, epsilon, cap):
        """Estimates of a repaired view, read through its run's cache (the
        patched plane, the intra-count edit), equal those of the same
        repair on cache-free reports — a repair of a repair included.
        Below ``REPRO_DENSE_MAX_BYTES`` the honest plane is parked first, as
        Detect1 parks it; above it none can be."""
        run, after, plain = _attacked_views(epsilon)
        protocol = LFGDPRProtocol(epsilon=epsilon)
        targets = np.array([5, 9, 11, 30, 60])
        labels = np.arange(after.num_nodes) % 5
        if cap is not None:
            monkeypatch.setenv(MAX_PACKED_BYTES_ENV, cap)
        parked = packed_plane(run.before)
        assert (parked is None) == (cap is not None)
        for flagged in _edit_flagged_cases(after.num_nodes)[1:4]:
            views = [
                resample_flagged_rows(reports, flagged, rng=3) for reports in (after, plain)
            ]
            views += [
                resample_flagged_rows(remove_flagged_pairs(reports, flagged[:1]), flagged, rng=4)
                for reports in (after, plain)
            ]
            views += [remove_flagged_pairs(reports, flagged) for reports in (after, plain)]
            for paired, scratch in zip(views[::2], views[1::2]):
                assert paired.cache is run.before.cache and scratch.cache is None
                for estimate in (
                    lambda reports: protocol.estimate_degree_centrality(reports),
                    lambda reports: protocol.estimate_clustering_coefficient(reports, targets),
                    lambda reports: protocol.estimate_modularity(reports, labels),
                ):
                    assert np.array_equal(estimate(paired), estimate(scratch))
