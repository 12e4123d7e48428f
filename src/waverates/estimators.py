"""Estimation procedures: maps from an observed coefficient tree to an estimate.

The observed tree is a sequence observation's y or the empirical
coefficients of a density sample; the rules do not depend on which.  Two
families: linear rules multiply each level by its linear_weights weight
(projection is the order-inf case), and thresholding keeps or shrinks observed
coefficients against a threshold up to a depth, which the risk engine plans
once per n: kappa sqrt(log n / n) and the noise-matched depth j(n).

Each rule is a stack kernel on the last axis of heap arrays
(``_linear_stack``, ``_threshold_stack``), which the risk engine runs on a
stack of replicates and the tree functions on one tree's array.

Throughout, "log" is the natural logarithm and the scaling coefficient is
passed through untouched: every procedure acts on wavelet coefficients only.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .dyadic import CoefficientTree

__all__ = [
    "universal_threshold",
    "noise_depth",
    "linear_weights",
    "linear_estimate",
    "threshold_estimate",
]


def universal_threshold(n: int) -> float:
    """The universal thresholding scale sqrt(log n / n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.sqrt(math.log(n) / n)


def noise_depth(n: int) -> int:
    """The depth j(n) with 2^{-j(n)} <= log n / n < 2^{-j(n)+1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    q, j = math.log(n) / n, 0
    while 2.0**-j > q:
        j += 1
    return j


def linear_weights(m_n: float, order: float = math.inf) -> dict[int, float]:
    """Linear weights, level -> weight: 1 - (2^j / m_n)^order on each level
    with 2^j < m_n, Pinsker's weights on the frequency 2^j of level j.  Order
    inf is projection (weight 1 on those levels, as x^inf is 0 for x < 1);
    m_n <= 1 weights no level."""
    if not 0.0 <= m_n < math.inf:
        raise ValueError(f"m_n must be a finite number >= 0, got {m_n}")
    if not order > 0:
        raise ValueError(f"order must be positive, got {order}")
    weights = {}
    while 2.0 ** (j := len(weights)) < m_n:
        weights[j] = 1.0 - (2.0**j / m_n) ** order
    return weights


def linear_estimate(y: CoefficientTree, weights: Mapping[int, float]) -> CoefficientTree:
    """Each level of the observed tree times its weight, as one multiply by a
    weight per coefficient; the estimate's array ends at the deepest level of
    y with a nonzero weight.  Scaling passed through with weight 1."""
    return CoefficientTree._of(y.j_max, _linear_stack(y.coeffs, weights))


def _linear_stack(y: np.ndarray, weights: Mapping[int, float]) -> np.ndarray:
    """linear_estimate on the last axis of y: the estimate's array of a heap
    array, or of each row of a stack of them, as one multiply by a weight per
    coefficient."""
    held = y.shape[-1].bit_length() - 1
    top = max((j + 1 for j, w in weights.items() if w != 0.0 and j < held), default=0)
    per_level = [1.0] + [weights.get(j, 0.0) for j in range(top)]
    per_coeff = np.repeat(per_level, [1] + [1 << j for j in range(top)])
    return per_coeff * y[..., : len(per_coeff)]


def threshold_estimate(y: CoefficientTree, lam: float, depth: int,
                       mode: str = "hard") -> CoefficientTree:
    """Hard or soft thresholding at lam on levels j <= depth.

    Hard keeps y when |y| >= lam (boundary kept); soft shrinks by
    sign(y) (|y| - lam)_+.  Levels above depth are zeroed and the scaling
    coefficient passed through untouched; the array ends at the deepest
    level that keeps a coefficient.  lam must be finite and > 0.
    """
    return CoefficientTree._of(y.j_max, _threshold_stack(y.coeffs, lam, depth, mode))


def _threshold_stack(y: np.ndarray, lam: float, depth: int, mode: str = "hard") -> np.ndarray:
    """threshold_estimate on the last axis of y: the estimate's array of a
    heap array, or of each row of a stack of them.  One comparison over the
    levels <= depth decides what is kept (|y| >= lam hard, |y| > lam soft:
    the coefficients whose estimate is nonzero, as lam > 0); a stack ends at
    the deepest level that any row keeps a coefficient of, the rows that
    keep none there holding zeros, and only that width is then formed, as
    one where (hard) or one shrink (soft)."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
    a = y[..., : 2 << depth]
    mag = np.abs(a)
    keep = mag >= lam if mode == "hard" else mag > lam
    starts = 1 << np.arange(a.shape[-1].bit_length() - 1)  # level j starts at 2^j
    levels = np.logical_or.reduceat(keep, starts, axis=-1).reshape(-1, len(starts))
    kept = np.flatnonzero(levels.any(axis=0))
    width = 2 << kept[-1] if kept.size else 1
    a = a[..., :width]
    if mode == "hard":
        est = np.where(keep[..., :width], a, 0.0)
    else:
        est = np.sign(a) * np.maximum(mag[..., :width] - lam, 0.0)
    est[..., 0] = a[..., 0]
    return est
