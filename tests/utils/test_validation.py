"""Tests for repro.utils.validation."""

import math

import numpy as np
import pytest

from repro.utils.validation import (
    check_epsilon,
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestCheckType:
    def test_accepts_instance(self):
        assert check_type(3, int, "x") == 3

    def test_accepts_tuple(self):
        assert check_type(3.5, (int, float), "x") == 3.5

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="x must be int"):
            check_type("3", int, "x")

    def test_tuple_error_message(self):
        with pytest.raises(TypeError, match="int or float"):
            check_type("3", (int, float), "x")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.5, "eps") == 0.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive(value, "eps")

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_positive("1", "eps")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "n") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative(-1, "n")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError, match="probability"):
            check_probability(value, "p")


class TestCheckFraction:
    def test_accepts_interior(self):
        assert check_fraction(0.05, "beta") == 0.05

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_boundary_and_outside(self, value):
        with pytest.raises(ValueError, match="strictly between"):
            check_fraction(value, "beta")


class TestCheckEpsilon:
    @pytest.mark.parametrize("value", [1e-3, 4, 2000.0, np.float64(8.0)])
    def test_accepts_finite_positive(self, value):
        assert check_epsilon(value) == value

    def test_zero_only_when_allowed(self):
        assert check_epsilon(0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError, match="finite positive"):
            check_epsilon(0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, True, False])
    def test_rejects_non_finite_negative_and_boolean(self, value):
        with pytest.raises(ValueError, match="adjacency_epsilon"):
            check_epsilon(value, "adjacency_epsilon", allow_zero=True)

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError, match="epsilon"):
            check_epsilon("4")
