"""Estimation procedures: maps from an observed coefficient tree to an estimate.

The observed tree is a sequence observation's y or the empirical
coefficients of a density sample; the rules do not depend on which.  Linear
rules multiply each level by its weight (projection_weights and
pinsker_weights give them); thresholding keeps or shrinks observed coefficients
against the universal threshold sqrt(log n / n) up to the noise-matched depth
j(n), and the density threshold is the strict, kappa-free variant.

Throughout, "log" is the natural logarithm and the scaling coefficient is
passed through untouched: every procedure acts on wavelet coefficients only.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .dyadic import CoefficientTree
from .spaces import SmoothnessParams

__all__ = [
    "universal_threshold",
    "noise_depth",
    "projection_weights",
    "pinsker_weights",
    "linear_estimate",
    "choose_mn",
    "threshold_estimate",
    "density_threshold_estimate",
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


def projection_weights(m_n: float) -> dict[int, float]:
    """Projection weights, level -> weight: 1 on the levels with 2^j < m_n."""
    if not 0.0 <= m_n < math.inf:
        raise ValueError(f"m_n must be a finite number >= 0, got {m_n}")
    weights = {}
    while 2.0 ** len(weights) < m_n:
        weights[len(weights)] = 1.0
    return weights


def pinsker_weights(m_n: float, order: float = 2.0) -> dict[int, float]:
    """Pinsker weights, level -> weight: (1 - (j / m_n)^order)_+ with m_n read
    as a level count, up to the first level whose weight is 0 (every deeper
    one is 0 too); m_n = 0 weights no level."""
    if not 0.0 <= m_n < math.inf:
        raise ValueError(f"m_n must be a finite number >= 0, got {m_n}")
    if order <= 0:
        raise ValueError("pinsker_order must be positive")
    weights = {}
    while m_n > 0 and (w := max(0.0, 1.0 - (len(weights) / m_n) ** order)):
        weights[len(weights)] = w
    return weights


def choose_mn(params: SmoothnessParams, n: int) -> float:
    """Bias-variance cutoff scale for linear rules.

    m_n = n^{1 / (2 s + d)} when r >= p, and n^{1 / (2 (s - d/r + d/p) + d)}
    when p > r.  projection_weights(m_n) keeps the levels with 2^j < m_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s, r, p, d = params.s, params.r, params.p, params.d
    if r >= p:
        return float(n) ** (1.0 / (2.0 * s + d))
    return float(n) ** (1.0 / (2.0 * (s - d / r + d / p) + d))


def linear_estimate(y: CoefficientTree, weights: Mapping[int, float]) -> CoefficientTree:
    """Each level of the observed tree times its weight (levels without one are
    dropped); scaling passed through with weight 1."""
    levels = {j: weights[j] * arr for j, arr in y.levels.items() if weights.get(j, 0.0) != 0.0}
    return CoefficientTree(d=y.d, j_max=y.j_max, scaling=y.scaling, levels=levels)


def threshold_estimate(y: CoefficientTree, n: int, kappa: float = 2.0,
                       mode: str = "hard") -> CoefficientTree:
    """Hard or soft thresholding at kappa * t_n on levels j <= j(n).

    Hard keeps y when |y| >= kappa t_n (boundary kept); soft shrinks by
    sign(y) (|y| - kappa t_n)_+.  Levels above j(n) are zeroed; the scaling
    coefficient is passed through untouched.  kappa must be finite and > 0.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if mode not in ("hard", "soft"):
        raise ValueError(f"mode must be 'hard' or 'soft', got {mode!r}")
    lam = kappa * universal_threshold(n)
    if mode == "hard":
        return _thresholded(y, noise_depth(n), lambda a: np.where(np.abs(a) >= lam, a, 0.0))
    return _thresholded(y, noise_depth(n),
                        lambda a: np.sign(a) * np.maximum(np.abs(a) - lam, 0.0))


def _thresholded(tree: CoefficientTree, j_cut: int, rule) -> CoefficientTree:
    """rule applied to every level j <= j_cut; deeper and all-zero levels dropped."""
    levels = {}
    for j, arr in tree.levels.items():
        if j > j_cut:
            continue
        est = rule(arr)
        if est.any():
            levels[j] = est
    return CoefficientTree(d=tree.d, j_max=tree.j_max, scaling=tree.scaling, levels=levels)


def density_threshold_estimate(beta_hat: CoefficientTree, n: int) -> CoefficientTree:
    """Density thresholding: keep |beta| > t_n (strict, no kappa) on j <= j(n)."""
    t = universal_threshold(n)
    return _thresholded(beta_hat, noise_depth(n), lambda a: np.where(np.abs(a) > t, a, 0.0))
