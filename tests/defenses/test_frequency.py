"""Tests for the frequency-oracle countermeasures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequency_attacks import FrequencyMGA, evaluate_frequency_attack
from repro.defenses.frequency import OUEAnomalyDefense, normalize_frequencies
from repro.ldp.frequency_oracles import KRR, OUE


class TestNormalizeFrequencies:
    def test_already_normalized(self):
        vector = np.array([0.25, 0.25, 0.5])
        assert np.allclose(normalize_frequencies(vector), vector)

    def test_negative_clipped(self):
        result = normalize_frequencies(np.array([0.7, 0.5, -0.2]))
        assert np.all(result >= 0)
        assert result.sum() == pytest.approx(1.0)
        assert result[2] == 0.0

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            normalize_frequencies(np.zeros((2, 2)))

    def test_degenerate_falls_back_to_uniform(self):
        result = normalize_frequencies(np.array([-5.0, -5.0]))
        assert np.allclose(result, [0.5, 0.5])

    @given(
        vector=st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_projection_properties(self, vector):
        result = normalize_frequencies(np.array(vector))
        assert np.all(result >= -1e-12)
        assert result.sum() == pytest.approx(1.0, abs=1e-9)

    def test_projection_is_closest_point(self):
        # For a 2-d case the projection can be verified by grid search.
        point = np.array([0.9, 0.4])
        projected = normalize_frequencies(point)
        grid = np.linspace(0, 1, 1001)
        candidates = np.stack([grid, 1 - grid], axis=1)
        distances = np.linalg.norm(candidates - point, axis=1)
        best = candidates[distances.argmin()]
        assert np.allclose(projected, best, atol=1e-3)


class TestOUEAnomalyDefense:
    def test_honest_reports_pass(self):
        oracle = OUE(domain_size=64, epsilon=1.0)
        rng = np.random.default_rng(0)
        reports = oracle.perturb(rng.integers(0, 64, size=2_000), rng=rng)
        defense = OUEAnomalyDefense(z_threshold=4.0)
        assert defense.keep_mask(oracle, reports).mean() > 0.99

    def test_unpadded_mga_reports_rejected(self):
        oracle = OUE(domain_size=64, epsilon=1.0)
        crafted = FrequencyMGA(pad_oue_reports=False).craft(
            oracle, 100, np.array([1, 2]), rng=0
        )
        defense = OUEAnomalyDefense(z_threshold=3.0)
        assert defense.keep_mask(oracle, crafted).mean() < 0.05

    def test_padded_mga_reports_evade(self):
        """Cao et al.'s padding exists precisely to beat this check."""
        oracle = OUE(domain_size=64, epsilon=1.0)
        crafted = FrequencyMGA(pad_oue_reports=True).craft(
            oracle, 100, np.array([1, 2]), rng=0
        )
        defense = OUEAnomalyDefense(z_threshold=3.0)
        assert defense.keep_mask(oracle, crafted).mean() > 0.9

    def test_wrong_oracle_type(self):
        defense = OUEAnomalyDefense()
        with pytest.raises(TypeError, match="OUE"):
            defense.keep_mask(KRR(domain_size=4, epsilon=1.0), np.zeros((2, 4)))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            OUEAnomalyDefense(z_threshold=0.0)


class TestDefendedEstimate:
    def test_normalization_bounds_gain(self):
        """Normalized estimates sum to 1, so injected target mass must be
        taken from elsewhere - the attack's footprint shrinks."""
        oracle = KRR(domain_size=32, epsilon=1.0)
        rng = np.random.default_rng(0)
        values = rng.integers(0, 32, size=10_000)
        targets = np.array([30, 31])
        outcome = evaluate_frequency_attack(
            oracle, values, FrequencyMGA(), targets, num_fake=500, rng=0
        )
        raw_gain = outcome.total_gain

        genuine_reports = oracle.perturb(values, rng=np.random.default_rng(1))
        crafted = FrequencyMGA().craft(oracle, 500, targets, rng=2)
        attacked = np.concatenate([genuine_reports, crafted])
        defended = normalize_frequencies(oracle.estimate_frequencies(attacked))
        clean = normalize_frequencies(oracle.estimate_frequencies(genuine_reports))
        defended_gain = float((defended[targets] - clean[targets]).sum())
        assert defended_gain <= raw_gain + 1e-9

    def test_oue_filter_reduces_unpadded_attack(self):
        oracle = OUE(domain_size=32, epsilon=1.0)
        rng = np.random.default_rng(0)
        values = rng.integers(0, 32, size=5_000)
        targets = np.array([30])
        genuine = oracle.perturb(values, rng=rng)
        crafted = FrequencyMGA(pad_oue_reports=False).craft(oracle, 400, targets, rng=1)
        attacked = np.concatenate([genuine, crafted])

        undefended = oracle.estimate_frequencies(attacked)[30]
        defense = OUEAnomalyDefense()
        defended = oracle.estimate_frequencies(defense.filter_reports(oracle, attacked))[30]
        clean = oracle.estimate_frequencies(genuine)[30]
        assert abs(defended - clean) < abs(undefended - clean)
