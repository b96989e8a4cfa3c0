"""Tests for repro.ldp.mechanisms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldp.mechanisms import (
    calibrate_bit_counts,
    laplace_noise,
    perturb_bits,
    perturb_degree,
    rr_keep_probability,
)


class TestKeepProbability:
    def test_epsilon_zero_is_half(self):
        assert rr_keep_probability(0.0) == pytest.approx(0.5)

    def test_known_value(self):
        assert rr_keep_probability(math.log(3)) == pytest.approx(0.75)

    def test_monotone_in_epsilon(self):
        values = [rr_keep_probability(eps) for eps in (0.5, 1, 2, 4, 8)]
        assert values == sorted(values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rr_keep_probability(-0.1)

    @pytest.mark.parametrize("epsilon", [710.0, 2000.0, 1e300, np.float64(800.0)])
    def test_large_epsilon_keeps_every_bit(self, epsilon):
        assert rr_keep_probability(epsilon) == 1.0

    def test_bit_identical_to_uncapped_formula(self):
        for epsilon in np.concatenate([np.linspace(0.0, 50.0, 501), [100.0, 709.0, 709.78]]):
            odds = math.exp(epsilon)
            assert rr_keep_probability(float(epsilon)) == odds / (1.0 + odds)

    @pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan, True, False])
    def test_non_finite_or_boolean_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            rr_keep_probability(epsilon)

    @given(eps=st.floats(min_value=0.0, max_value=15.0, allow_nan=False))
    def test_privacy_ratio_bounded(self, eps):
        """p/(1-p) == e^eps: the LDP guarantee of symmetric RR.

        The tolerance is loose at the top of the range because 1-p underflows
        toward the float64 resolution limit.
        """
        p = rr_keep_probability(eps)
        assert 0.5 <= p < 1.0
        assert p / (1.0 - p) == pytest.approx(math.exp(eps), rel=1e-6)


class TestPerturbBits:
    def test_output_is_binary(self):
        bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        out = perturb_bits(bits, 2.0, rng=0)
        assert set(np.unique(out)).issubset({0, 1})

    def test_high_epsilon_preserves(self):
        bits = np.array([0, 1] * 500, dtype=np.uint8)
        out = perturb_bits(bits, 50.0, rng=0)
        assert np.array_equal(out, bits)

    def test_flip_rate_matches_theory(self):
        rng = np.random.default_rng(0)
        bits = np.zeros(200_000, dtype=np.uint8)
        out = perturb_bits(bits, 1.0, rng=rng)
        expected_flip = 1.0 - rr_keep_probability(1.0)
        assert out.mean() == pytest.approx(expected_flip, rel=0.05)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            perturb_bits(np.array([0, 2]), 1.0, rng=0)

    def test_deterministic_with_seed(self):
        bits = np.array([0, 1] * 100, dtype=np.uint8)
        assert np.array_equal(perturb_bits(bits, 1.0, rng=7), perturb_bits(bits, 1.0, rng=7))

    def test_shape_preserved(self):
        bits = np.zeros((4, 5), dtype=np.uint8)
        assert perturb_bits(bits, 1.0, rng=0).shape == (4, 5)


class TestLaplace:
    def test_scale(self):
        rng = np.random.default_rng(0)
        draws = laplace_noise(2.0, size=100_000, rng=rng)
        # Laplace(0, b) has std = b * sqrt(2).
        assert draws.std() == pytest.approx(2.0 * math.sqrt(2.0), rel=0.05)
        assert draws.mean() == pytest.approx(0.0, abs=0.05)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            laplace_noise(0.0)


class TestPerturbDegree:
    def test_unbiased(self):
        rng = np.random.default_rng(0)
        degrees = np.full(100_000, 25.0)
        noisy = perturb_degree(degrees, 2.0, rng=rng)
        assert noisy.mean() == pytest.approx(25.0, abs=0.1)

    def test_scalar_input(self):
        noisy = perturb_degree(10, 1.0, rng=0)
        assert noisy.shape == (1,)

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValueError):
            perturb_degree(10, 0.0, rng=0)

    def test_deterministic(self):
        a = perturb_degree(np.arange(10.0), 1.0, rng=3)
        b = perturb_degree(np.arange(10.0), 1.0, rng=3)
        assert np.array_equal(a, b)


class TestCalibration:
    def test_inverts_expectation_exactly(self):
        # With x = k p + (T - k)(1 - p) plugged in, calibration returns k.
        epsilon = 1.5
        p = rr_keep_probability(epsilon)
        true_count, total = 120.0, 1000.0
        observed = true_count * p + (total - true_count) * (1 - p)
        assert calibrate_bit_counts(observed, total, epsilon) == pytest.approx(true_count)

    def test_vectorised(self):
        epsilon = 2.0
        p = rr_keep_probability(epsilon)
        true_counts = np.array([0.0, 10.0, 500.0])
        totals = np.array([100.0, 100.0, 1000.0])
        observed = true_counts * p + (totals - true_counts) * (1 - p)
        calibrated = calibrate_bit_counts(observed, totals, epsilon)
        assert np.allclose(calibrated, true_counts)

    def test_epsilon_zero_rejected(self):
        with pytest.raises(ValueError, match="no signal"):
            calibrate_bit_counts(50.0, 100.0, 0.0)

    @given(
        eps=st.floats(min_value=0.1, max_value=10.0),
        true_count=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, eps, true_count):
        total = 1000.0
        p = rr_keep_probability(eps)
        observed = true_count * p + (total - true_count) * (1 - p)
        assert calibrate_bit_counts(observed, total, eps) == pytest.approx(
            true_count, abs=1e-6
        )

    def test_monte_carlo_unbiased(self):
        epsilon = 1.0
        rng = np.random.default_rng(0)
        bits = np.zeros(10_000, dtype=np.uint8)
        bits[:3_000] = 1
        estimates = [
            calibrate_bit_counts(perturb_bits(bits, epsilon, rng=rng).sum(), bits.size, epsilon)
            for _ in range(50)
        ]
        assert np.mean(estimates) == pytest.approx(3_000, rel=0.03)
