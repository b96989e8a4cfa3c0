"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import child_rng, ensure_rng


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1_000_000, size=8)
        b = ensure_rng(42).integers(0, 1_000_000, size=8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 1_000_000, size=8)
        b = ensure_rng(2).integers(0, 1_000_000, size=8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError, match="expected None"):
            ensure_rng("not-a-seed")


class TestChildRng:
    def test_same_key_same_stream(self):
        a = child_rng(7, "noise").integers(0, 1_000_000, size=16)
        b = child_rng(7, "noise").integers(0, 1_000_000, size=16)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = child_rng(7, "noise").integers(0, 1_000_000, size=16)
        b = child_rng(7, "attack").integers(0, 1_000_000, size=16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = child_rng(7, "noise").integers(0, 1_000_000, size=16)
        b = child_rng(8, "noise").integers(0, 1_000_000, size=16)
        assert not np.array_equal(a, b)

    def test_child_independent_of_parent_draws(self):
        # The child stream must not overlap the parent stream trivially.
        parent = ensure_rng(7)
        parent_draws = parent.integers(0, 1_000_000, size=16)
        child_draws = child_rng(7, "noise").integers(0, 1_000_000, size=16)
        assert not np.array_equal(parent_draws, child_draws)

    def test_seed_sequence_seed(self):
        a = child_rng(np.random.SeedSequence(3), "x").integers(0, 100, size=4)
        b = child_rng(np.random.SeedSequence(3), "x").integers(0, 100, size=4)
        assert np.array_equal(a, b)

    def test_generator_seed_is_usable(self):
        gen = np.random.default_rng(0)
        child = child_rng(gen, "x")
        assert isinstance(child, np.random.Generator)

