"""Tests for attack-crafting helpers."""

import hashlib

import numpy as np

from repro.core.base import random_new_neighbors
from repro.core.degree_attacks import DegreeMGA, DegreeRVA
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.lfgdpr import LFGDPRProtocol


class TestRandomNewNeighbors:
    def test_excludes_self_and_existing(self):
        rng = np.random.default_rng(0)
        existing = np.array([1, 2, 3])
        for _ in range(20):
            new = random_new_neighbors(0, existing, 4, 10, rng)
            assert 0 not in new
            assert np.intersect1d(new, existing).size == 0

    def test_count(self):
        rng = np.random.default_rng(1)
        new = random_new_neighbors(0, np.array([1]), 5, 100, rng)
        assert new.size == 5
        assert np.unique(new).size == 5

    def test_sorted(self):
        rng = np.random.default_rng(2)
        new = random_new_neighbors(0, np.empty(0, dtype=np.int64), 10, 50, rng)
        assert np.all(np.diff(new) > 0)

    def test_saturation(self):
        rng = np.random.default_rng(3)
        new = random_new_neighbors(0, np.array([1, 2]), 100, 5, rng)
        assert sorted(new.tolist()) == [3, 4]

    def test_zero_count(self):
        rng = np.random.default_rng(4)
        assert random_new_neighbors(0, np.array([1]), 0, 10, rng).size == 0


    def test_stream_pinned(self):
        # sha256 of the outputs and of one trailing draw per call over a
        # seed x existing x count grid, recorded from the np.union1d /
        # np.setdiff1d implementation: the sort-based set operations must
        # return the same neighbours and consume the generator identically.
        assert _random_new_neighbors_digest() == RANDOM_NEW_NEIGHBORS_DIGEST

    def test_crafted_claims_pinned(self):
        # sha256 of every fake's claims and degree report, plus one trailing
        # draw, for the two attacks that pad claims with random new
        # neighbours (DegreeRVA, inherited by ClusteringRVA, and DegreeMGA's
        # evasion padding), recorded from the sorted-set implementation:
        # the mask-based sampler must craft the same reports.
        assert _crafted_claims_digest() == CRAFTED_CLAIMS_DIGEST


#: See ``TestRandomNewNeighbors.test_stream_pinned``.
RANDOM_NEW_NEIGHBORS_DIGEST = "57b62bde12318f5b5284480c2cb45c6be79fc5dd9629fd9889d079124c90e63f"


#: See ``TestRandomNewNeighbors.test_crafted_claims_pinned``.
CRAFTED_CLAIMS_DIGEST = "9a32d7e1ed8924fa9b32acffa917e9281095676fb3690b664d9833a4674e4a98"


def _crafted_claims_digest() -> str:
    digest = hashlib.sha256()
    graph = powerlaw_cluster_graph(300, 4, 0.4, rng=7)
    for epsilon in (1.0, 4.0):
        knowledge = AttackerKnowledge.from_protocol(LFGDPRProtocol(epsilon), graph)
        for seed in range(3):
            threat = ThreatModel.sample(graph, beta=0.05, gamma=0.05, rng=seed)
            for attack in (DegreeRVA(), DegreeMGA(evade_consistency=True)):
                generator = np.random.default_rng(seed)
                overrides = attack.craft(graph, threat, knowledge, rng=generator)
                for fake, report in sorted(overrides.items()):
                    digest.update(np.int64(fake).tobytes())
                    digest.update(report.claimed_neighbors.tobytes())
                    digest.update(np.float64(report.reported_degree).tobytes())
                digest.update(generator.integers(0, 2**62, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _random_new_neighbors_digest() -> str:
    digest = hashlib.sha256()
    existing_sets = [
        np.empty(0, dtype=np.int64),
        np.array([1, 2, 3]),
        np.array([9, 1, 9, 5]),  # unsorted, duplicated
        np.arange(0, 60, 2),
        np.arange(4, 64),  # leaves three candidates
    ]
    for seed in range(4):
        for existing in existing_sets:
            for num_nodes, count in ((64, 0), (64, 1), (64, 7), (64, 40), (64, 200), (1000, 300)):
                rng = np.random.default_rng(seed)
                new = random_new_neighbors(3, existing, count, num_nodes, rng)
                digest.update(np.int64(new.size).tobytes())
                digest.update(np.asarray(new, dtype=np.int64).tobytes())
                digest.update(rng.integers(0, 2**62, dtype=np.int64).tobytes())
    return digest.hexdigest()

