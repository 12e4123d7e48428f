"""Besov-scale functionals on coefficient trees.

Sequence-space Besov norms, the weak (Lorentz-type) exceedance functional,
empirical scaling-function estimation by level-sum regression, and the
closed-form generic scaling function the estimates are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import CoefficientTree

__all__ = [
    "SmoothnessParams",
    "WeakBesovParams",
    "ScalingFunctionEstimate",
    "besov_norm",
    "weak_besov_functional",
    "check_scaling_window",
    "empirical_scaling",
    "theoretical_scaling",
]


@dataclass(frozen=True)
class SmoothnessParams:
    """Smoothness/loss parameter bundle shared by all rate formulas.

    s: smoothness, r: Besov integrability, p: loss exponent, d: dimension;
    the rate theory uses the Besov fine index q = infinity throughout.
    Requires the standing assumption s > d/r.
    """

    s: float
    r: float
    p: float
    d: int = 1

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if not 1 <= self.r:
            raise ValueError(f"r must be in [1, inf], got {self.r}")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be in [1, inf), got {self.p}")
        if self.s <= self.d / self.r:
            raise ValueError(f"need s > d/r, got s={self.s}, d/r={self.d / self.r}")


@dataclass(frozen=True)
class WeakBesovParams:
    """Parameters (rho, p) of the weak space W(rho, p); requires 0 < rho < p."""

    rho: float
    p: float

    def __post_init__(self):
        if not 0 < self.rho < self.p:
            raise ValueError(f"need 0 < rho < p, got rho={self.rho}, p={self.p}")


@dataclass(frozen=True)
class ScalingFunctionEstimate:
    p: float
    estimate: float
    regression_window: tuple[int, int]
    residual: float

    def __post_init__(self):
        if self.regression_window[0] >= self.regression_window[1]:
            raise ValueError("regression window must satisfy j_lo < j_hi")
        if self.residual < 0:
            raise ValueError("residual must be non-negative")


def besov_norm(tree: CoefficientTree, s: float, r: float, q: float = math.inf) -> float:
    """Sequence-space Besov norm of a coefficient tree.

    Per-level aggregate 2^{(s - d/r + d/2) j} (sum_k |c_{j,k}|^r)^{1/r}
    (max over k when r = inf), combined across levels in l^q (sup when
    q = inf).  The scaling coefficient contributes |scaling| additively.
    """
    if not (0 < r):
        raise ValueError(f"r must be positive (possibly inf), got {r}")
    if not (0 < q):
        raise ValueError(f"q must be positive (possibly inf), got {q}")
    d = tree.d
    aggregates = []
    for j in sorted(tree.levels):
        a = np.abs(tree.levels[j])
        if not a.any():
            continue
        if math.isinf(r):
            level = float(a.max()) * 2.0 ** ((s + d / 2.0) * j)
        else:
            level = float(np.sum(a**r)) ** (1.0 / r) * 2.0 ** ((s - d / r + d / 2.0) * j)
        aggregates.append(level)
    if not aggregates:
        return abs(tree.scaling)
    if math.isinf(q):
        body = max(aggregates)
    else:
        body = float(np.sum(np.asarray(aggregates) ** q)) ** (1.0 / q)
    return abs(tree.scaling) + body


def weak_besov_functional(
    tree: CoefficientTree,
    params: WeakBesovParams,
    t_grid_max: int = 30,
    lambda_grid=None,
) -> float:
    """Weak-space functional: max over thresholds of the weighted exceedance count.

    Evaluates lambda^rho * sum_j 2^{j (d p / 2 - d)} #{k : |c_{j,k}| > lambda}
    on the dyadic grid lambda = 2^{-t}, t = 0..t_grid_max (or an explicit
    ``lambda_grid``), with the strict inequality in the count.  The dyadic
    grid bounds the continuous supremum to within a factor 2^rho.
    """
    if lambda_grid is None:
        if t_grid_max < 1:
            raise ValueError("t_grid_max must be >= 1")
        lam = 2.0 ** (-np.arange(t_grid_max + 1, dtype=np.float64))
    else:
        lam = np.asarray(lambda_grid, dtype=np.float64)
        if lam.size == 0 or np.any(lam <= 0):
            raise ValueError("lambda_grid must contain positive thresholds")
    d = tree.d
    total = np.zeros_like(lam)
    for j, arr in tree.levels.items():
        mags = np.sort(np.abs(arr), axis=None)
        if mags[-1] == 0.0:
            continue
        # count of strictly-exceeding coefficients for every lambda at once
        counts = mags.size - np.searchsorted(mags, lam, side="right")
        total += 2.0 ** (j * (d * params.p / 2.0 - d)) * counts
    return float(np.max(lam**params.rho * total))


def check_scaling_window(window: tuple[int, int], j_max: int) -> None:
    """Reject a regression window empirical_scaling cannot fit on a depth-j_max tree."""
    j_lo, j_hi = window
    if j_hi - j_lo + 1 < 3:
        raise ValueError("regression window must span at least 3 levels")
    if j_lo < 1:
        raise ValueError("regression window must start at level >= 1")
    if j_hi > j_max:
        raise ValueError(f"window top {j_hi} exceeds tree depth {j_max}")


def empirical_scaling(
    tree: CoefficientTree, p: float, window: tuple[int, int]
) -> ScalingFunctionEstimate:
    """Scaling-function estimate from the decay of p-th power level sums.

    Regresses log2(sum_k |c_{j,k}|^p) on j over the window and converts the
    slope through the Besov-characterization exponent: level sums of a
    smoothness-s tree decay like 2^{-(s p - d + p d / 2) j}, so
    s = (-slope + d - p d / 2) / p.  A log2(j) regressor is included to
    absorb subpolynomial corrections, which otherwise bias the slope on any
    finite window; the window must therefore start at level 1 or deeper.
    The scaling coefficient carries no scale information and is excluded.
    """
    check_scaling_window(window, tree.j_max)
    j_lo, j_hi = window
    d = tree.d
    js = np.arange(j_lo, j_hi + 1)
    sums = np.empty(len(js))
    for i, j in enumerate(js):
        if j not in tree.levels:
            raise ValueError(f"level {j} in the regression window is all zero")
        sums[i] = np.sum(np.abs(tree.levels[j]) ** p)
        if sums[i] == 0.0:
            raise ValueError(f"level {j} in the regression window is all zero")
    y = np.log2(sums)
    design = np.column_stack([js, np.log2(js), np.ones(len(js))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = coef[0]
    residual = float(np.max(np.abs(design @ coef - y)))
    estimate = (-slope + d - p * d / 2.0) / p
    return ScalingFunctionEstimate(
        p=p, estimate=float(estimate), regression_window=(j_lo, j_hi), residual=residual
    )


def theoretical_scaling(s0: float, p0: float, p: float, d: int) -> float:
    """Generic (prevalent) scaling function inside a smoothness-s0 ball."""
    if s0 - d / p0 <= 0:
        raise ValueError(f"need s0 > d/p0, got s0={s0}, d/p0={d / p0}")
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if p <= p0:
        return s0
    return d / p + s0 - d / p0
