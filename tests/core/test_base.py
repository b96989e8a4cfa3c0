"""Tests for attack-crafting helpers."""

import hashlib

import numpy as np

from repro.core.base import random_new_neighbors


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


#: See ``TestRandomNewNeighbors.test_stream_pinned``.
RANDOM_NEW_NEIGHBORS_DIGEST = "57b62bde12318f5b5284480c2cb45c6be79fc5dd9629fd9889d079124c90e63f"


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

