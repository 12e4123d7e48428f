"""Besov-scale functionals on coefficient trees.

Sequence-space Besov norms, empirical scaling-function estimation by
level-sum regression, and the closed-form generic scaling function the
estimates are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import CoefficientTree, _refuse_bools

__all__ = [
    "SmoothnessParams",
    "ScalingFunctionEstimate",
    "besov_norm",
    "empirical_scaling",
    "theoretical_scaling",
]


@dataclass(frozen=True)
class SmoothnessParams:
    """Smoothness/loss parameter bundle shared by all rate formulas.

    s: smoothness, r: Besov integrability, p: loss exponent, d: dimension (1);
    the rate theory uses the Besov fine index q = infinity throughout.
    Requires the standing assumption s > d/r.
    """

    s: float
    r: float
    p: float
    d: int = 1

    def __post_init__(self):
        _refuse_bools(s=self.s, r=self.r, p=self.p, d=self.d)
        if self.d != 1:
            raise ValueError(f"dimension must be 1, got {self.d}")
        if not 1 <= self.r:
            raise ValueError(f"r must be in [1, inf], got {self.r}")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be in [1, inf), got {self.p}")
        if self.s <= self.d / self.r:
            raise ValueError(f"need s > d/r, got s={self.s}, d/r={self.d / self.r}")


class ScalingFunctionEstimate(NamedTuple):
    """empirical_scaling's result; residual is the regression's largest |misfit|."""

    p: float
    estimate: float
    regression_window: tuple[int, int]
    residual: float


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
    j_lo, j_hi = window
    if j_hi - j_lo + 1 < 3:
        raise ValueError("regression window must span at least 3 levels")
    if j_lo < 1:
        raise ValueError("regression window must start at level >= 1")
    if j_hi > tree.j_max:
        raise ValueError(f"window top {j_hi} exceeds tree depth {tree.j_max}")
    d = tree.d
    js = np.arange(j_lo, j_hi + 1)
    sums = np.empty(len(js))
    for i, j in enumerate(js):
        sums[i] = np.sum(np.abs(tree.level(j)) ** p)
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
    """Generic (prevalent) scaling function inside a smoothness-s0 ball, the
    s' of the linear generic rate: s0 for p <= p0, else s0 - d/p0 + d/p."""
    if s0 - d / p0 <= 0:
        raise ValueError(f"need s0 > d/p0, got s0={s0}, d/p0={d / p0}")
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if p <= p0:
        return s0
    return s0 - d / p0 + d / p
