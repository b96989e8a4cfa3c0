"""Core local-perturbation mechanisms.

Two primitives cover everything the graph protocols need:

* **Symmetric randomized response** on bits (Warner's mechanism).  Each bit is
  reported truthfully with probability ``p = e^eps / (1 + e^eps)`` and flipped
  otherwise, which satisfies ``eps``-edge-LDP for adjacency bit vectors.
* **The Laplace mechanism** on the node degree (sensitivity 1 under edge LDP:
  adding or removing one edge changes a degree by exactly 1).

Plus the server-side *calibration* that converts biased randomized-response
counts back into unbiased estimates.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_epsilon, check_positive

ArrayLike = Union[float, np.ndarray]


def rr_keep_probability(epsilon: float) -> float:
    """Probability ``p`` of reporting a bit truthfully under eps-LDP RR.

    ``p = e^eps / (1 + e^eps)``; flipping happens with probability ``1 - p``.
    This is the ``p`` that appears throughout the paper's estimator formulas.

    >>> round(rr_keep_probability(0.0), 3)
    0.5
    >>> rr_keep_probability(2000.0)
    1.0
    """
    check_epsilon(epsilon, allow_zero=True)
    # The ratio rounds to exactly 1.0 from eps ~ 36.7 on, long before
    # math.exp overflows (eps > 709.78), so capping the exponent keeps every
    # value the uncapped formula can produce bit-identical.
    odds = math.exp(min(epsilon, 709.0))
    return odds / (1.0 + odds)


def perturb_bits(bits: np.ndarray, epsilon: float, rng: RngLike = None) -> np.ndarray:
    """Apply symmetric randomized response to a 0/1 array.

    Every bit is flipped independently with probability ``1 - p``.  Satisfies
    eps-edge-LDP when ``bits`` is an adjacency bit vector (neighbouring
    vectors differ in one bit, and the output-likelihood ratio for any single
    bit is at most ``p / (1 - p) = e^eps``).
    """
    generator = ensure_rng(rng)
    bits = np.asarray(bits)
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    keep = rr_keep_probability(epsilon)
    flips = generator.random(bits.shape) >= keep
    return np.where(flips, 1 - bits, bits).astype(np.uint8)


def laplace_noise(
    scale: float, size: int | tuple | None = None, rng: RngLike = None
) -> np.ndarray:
    """Draw Laplace(0, scale) noise."""
    check_positive(scale, "scale")
    return ensure_rng(rng).laplace(loc=0.0, scale=scale, size=size)


def perturb_degree(degrees: ArrayLike, epsilon: float, rng: RngLike = None) -> np.ndarray:
    """Laplace mechanism on node degrees (edge-LDP sensitivity 1).

    Returns real-valued noisy degrees; the protocols keep them unrounded so
    that calibration stays unbiased.
    """
    check_epsilon(epsilon)
    degrees = np.atleast_1d(np.asarray(degrees, dtype=np.float64))
    noise = laplace_noise(1.0 / epsilon, size=degrees.shape, rng=rng)
    return degrees + noise


def calibrate_bit_counts(observed_ones: ArrayLike, total_bits: ArrayLike, epsilon: float) -> np.ndarray:
    """Unbiased estimate of true 1-counts from randomized-response outputs.

    If ``x`` of ``T`` reported bits are 1 and the true count is ``k``, then
    ``E[x] = k p + (T - k)(1 - p)``, so the calibrated estimate is
    ``k_hat = (x - T (1 - p)) / (2p - 1)``.

    This is the server-side counterpart of :func:`perturb_bits` and the
    ``R(.)``-style correction for degrees derived from bit vectors.
    """
    keep = rr_keep_probability(epsilon)
    if keep == 0.5:
        raise ValueError("epsilon=0 leaves no signal to calibrate (2p - 1 = 0)")
    observed_ones = np.asarray(observed_ones, dtype=np.float64)
    total_bits = np.asarray(total_bits, dtype=np.float64)
    return (observed_ones - total_bits * (1.0 - keep)) / (2.0 * keep - 1.0)
