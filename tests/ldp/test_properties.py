"""Property-based tests for the LDP primitives (Hypothesis).

Three families of invariants, each over wide randomised parameter ranges:

* **Simplex** — randomized response's keep probability lies in [1/2, 1) and
  perturbed bits stay binary.
* **Unbiasedness** — the ``(x - T (1 - p)) / (2p - 1)`` bit-count
  calibration exactly inverts randomized response *in expectation*.
* **Epsilon monotonicity** — more budget means more signal: the keep
  probability increases and the degree noise decreases as epsilon grows.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.ldp.mechanisms import (  # noqa: E402
    calibrate_bit_counts,
    perturb_bits,
    perturb_degree,
    rr_keep_probability,
)

epsilons = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)
#: Distinct epsilon pairs for monotonicity checks, ordered eps_lo < eps_hi.
epsilon_pairs = st.tuples(epsilons, epsilons).filter(lambda pair: abs(pair[0] - pair[1]) > 1e-6)

COMMON = dict(max_examples=50, deadline=None)


class TestSimplex:
    @settings(**COMMON)
    @given(epsilon=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    def test_rr_keep_probability_in_half_open_unit(self, epsilon):
        keep = rr_keep_probability(epsilon)
        assert 0.5 <= keep < 1.0
        # Keep + flip is a two-outcome distribution.
        assert keep + (1.0 - keep) == pytest.approx(1.0)

    @settings(**COMMON)
    @given(
        epsilon=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shape=st.integers(min_value=1, max_value=200),
    )
    def test_perturb_bits_outputs_stay_binary(self, epsilon, seed, shape):
        bits = np.random.default_rng(seed).integers(0, 2, size=shape)
        reported = perturb_bits(bits, epsilon, rng=seed)
        assert reported.shape == bits.shape
        assert np.isin(reported, (0, 1)).all()


class TestUnbiasedness:
    @settings(**COMMON)
    @given(
        epsilon=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
        true_ones=st.integers(min_value=0, max_value=500),
        extra_zeros=st.integers(min_value=0, max_value=500),
    )
    def test_bit_count_calibration_inverts_expectation(self, epsilon, true_ones, extra_zeros):
        """calibrate_bit_counts undoes randomized response in expectation."""
        total = true_ones + extra_zeros
        keep = rr_keep_probability(epsilon)
        expected_ones = true_ones * keep + (total - true_ones) * (1.0 - keep)
        estimate = calibrate_bit_counts(expected_ones, total, epsilon)
        assert estimate == pytest.approx(true_ones, abs=1e-8)


class TestEpsilonMonotonicity:
    @settings(**COMMON)
    @given(pair=epsilon_pairs)
    def test_rr_keep_probability_monotone(self, pair):
        eps_lo, eps_hi = sorted(pair)
        assert rr_keep_probability(eps_hi) > rr_keep_probability(eps_lo)

    @settings(**COMMON)
    @given(pair=epsilon_pairs, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_laplace_scale_antitone(self, pair, seed):
        """More budget, less degree noise: the same Laplace draws, scaled by
        ``1 / epsilon``, shrink as epsilon grows."""
        eps_lo, eps_hi = sorted(pair)
        noise_lo = perturb_degree(np.zeros(8), eps_lo, rng=seed)
        noise_hi = perturb_degree(np.zeros(8), eps_hi, rng=seed)
        nonzero = noise_lo != 0
        assert np.all(np.abs(noise_hi[nonzero]) < np.abs(noise_lo[nonzero]))
