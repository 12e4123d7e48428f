"""Estimation procedures: maps from an observed coefficient tree to an estimate.

The observed tree is a sequence observation's y or the empirical
coefficients of a density sample; the rules do not depend on which.  Linear
rules apply smoothing weights coefficient-wise (projection and Pinsker
profiles built in); thresholding keeps or shrinks observed coefficients
against the universal threshold sqrt(log n / n) up to the noise-matched depth
j(n), and the density threshold is the strict, kappa-free variant.  The
shrinkage-trace machinery classifies realized rules on sequence observations
as limited (significant weights confined to coarse scales) or elitist
(significant weights confined to large observations).

Throughout, "log" is the natural logarithm and the scaling coefficient is
passed through untouched: every procedure acts on wavelet coefficients only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dyadic import CoefficientTree
from .models import SequenceObservation
from .spaces import SmoothnessParams

__all__ = [
    "WeightProfile",
    "ThresholdConfig",
    "ShrinkageClass",
    "ShrinkageTrace",
    "linear_estimate",
    "choose_mn",
    "threshold_estimate",
    "density_threshold_estimate",
    "classify_rule",
    "shrinkage_trace",
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


def _unit_levels(levels: Mapping[int, np.ndarray], what: str) -> dict[int, np.ndarray]:
    """Read-only float copies of per-level arrays whose values all lie in [0, 1]."""
    clean = {}
    for j, arr in levels.items():
        arr = np.array(arr, dtype=np.float64)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError(f"{what} at level {j} leave [0, 1]")
        arr.flags.writeable = False
        clean[int(j)] = arr
    return clean


@dataclass(frozen=True)
class WeightProfile:
    """Smoothing weights for linear rules.

    kind 'projection' keeps levels with 2^j < m_n; kind 'pinsker' applies
    (1 - (j / m_n)^order)_+ with m_n read as a level count; kind 'custom'
    carries explicit per-level weight arrays.  All weights lie in [0, 1].
    """

    kind: str
    m_n: float = 0.0
    pinsker_order: float = 2.0
    weights: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("projection", "pinsker", "custom"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind in ("projection", "pinsker") and self.m_n < 0:
            raise ValueError("m_n must be non-negative")
        if self.kind == "pinsker" and self.pinsker_order <= 0:
            raise ValueError("pinsker_order must be positive")
        object.__setattr__(self, "weights", _unit_levels(self.weights, "weights"))

    @classmethod
    def projection(cls, m_n: float) -> "WeightProfile":
        return cls(kind="projection", m_n=m_n)

    @classmethod
    def pinsker(cls, m_n: float, order: float = 2.0) -> "WeightProfile":
        return cls(kind="pinsker", m_n=m_n, pinsker_order=order)

    @classmethod
    def custom(cls, weights: Mapping[int, np.ndarray]) -> "WeightProfile":
        return cls(kind="custom", weights=weights)

    def level_weight(self, j: int):
        """Weight applied at level j: a scalar, or an array for custom profiles."""
        if self.kind == "projection":
            return 1.0 if 2.0**j < self.m_n else 0.0
        if self.kind == "pinsker":
            return max(0.0, 1.0 - (j / self.m_n) ** self.pinsker_order) if self.m_n > 0 else 0.0
        arr = self.weights.get(j)
        return 0.0 if arr is None else arr


def choose_mn(params: SmoothnessParams, n: int) -> float:
    """Bias-variance cutoff scale for linear rules.

    m_n = n^{1 / (2 s + d)} when r >= p, and n^{1 / (2 (s - d/r + d/p) + d)}
    when p > r.  The projection profile keeps levels with 2^j < m_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s, r, p, d = params.s, params.r, params.p, params.d
    if r >= p:
        return float(n) ** (1.0 / (2.0 * s + d))
    return float(n) ** (1.0 / (2.0 * (s - d / r + d / p) + d))


def linear_estimate(y: CoefficientTree, w: WeightProfile) -> CoefficientTree:
    """Coefficient-wise weighted observed tree; scaling passed through with weight 1."""
    levels = {}
    for j, arr in y.levels.items():
        wj = w.level_weight(j)
        if isinstance(wj, np.ndarray):
            if wj.shape != arr.shape:
                raise ValueError(f"custom weights at level {j} have shape {wj.shape}")
            levels[j] = wj * arr
        elif wj != 0.0:
            levels[j] = wj * arr
    return CoefficientTree(d=y.d, j_max=y.j_max, scaling=y.scaling, levels=levels)


@dataclass(frozen=True)
class ThresholdConfig:
    """Universal-threshold configuration; t_n and j(n) are derived, never stored."""

    n: int
    kappa: float = 2.0
    mode: str = "hard"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.mode not in ("hard", "soft"):
            raise ValueError(f"mode must be 'hard' or 'soft', got {self.mode!r}")

    @property
    def t_n(self) -> float:
        return universal_threshold(self.n)

    @property
    def j_n(self) -> int:
        return noise_depth(self.n)


def threshold_estimate(y: CoefficientTree, cfg: ThresholdConfig) -> CoefficientTree:
    """Hard or soft thresholding at kappa * t_n on levels j <= j(n).

    Hard keeps y when |y| >= kappa t_n (boundary kept); soft shrinks by
    sign(y) (|y| - kappa t_n)_+.  Levels above j(n) are zeroed; the scaling
    coefficient is passed through untouched.
    """
    lam = cfg.kappa * cfg.t_n
    if cfg.mode == "hard":
        return _thresholded(y, cfg.j_n, lambda a: np.where(np.abs(a) >= lam, a, 0.0))
    return _thresholded(y, cfg.j_n, lambda a: np.sign(a) * np.maximum(np.abs(a) - lam, 0.0))


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


@dataclass(frozen=True)
class ShrinkageClass:
    """A limited or elitist class: deterministic level/magnitude bound lambda_n
    and significance constant a in [0, 1)."""

    kind: str
    lambda_n: float
    threshold_a: float = 0.5

    def __post_init__(self):
        if self.kind not in ("limited", "elitist"):
            raise ValueError(f"kind must be 'limited' or 'elitist', got {self.kind!r}")
        if self.lambda_n < 0:
            raise ValueError("lambda_n must be non-negative")
        if not 0.0 <= self.threshold_a < 1.0:
            raise ValueError("threshold_a must lie in [0, 1)")


@dataclass(frozen=True)
class ShrinkageTrace:
    """Realized shrinkage weights gamma_{j,k} of an estimate on an observation."""

    gammas: Mapping[int, np.ndarray]
    observation: SequenceObservation

    def __post_init__(self):
        object.__setattr__(self, "gammas", _unit_levels(self.gammas, "gamma values"))


def shrinkage_trace(obs: SequenceObservation, estimate: CoefficientTree) -> ShrinkageTrace:
    """Recover gamma_{j,k} = estimate / observation (0 where the observation is 0).

    Tiny floating excursions outside [0, 1] are clipped; a genuine non-shrinkage
    estimate raises through the trace invariant.
    """
    gammas = {}
    for j in range(obs.y.j_max + 1):
        y = obs.y.level(j)
        est = estimate.level(j)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(y != 0.0, est / np.where(y != 0.0, y, 1.0), 0.0)
        if np.any(g < -1e-9) or np.any(g > 1.0 + 1e-9):
            raise ValueError(f"estimate is not a shrinkage of the observation at level {j}")
        gammas[j] = np.clip(g, 0.0, 1.0)
    return ShrinkageTrace(gammas=gammas, observation=obs)


def classify_rule(trace: ShrinkageTrace, cls: ShrinkageClass) -> bool:
    """Check the defining implication of a shrinkage class on a realized trace.

    limited: every index with gamma > a must satisfy 2^{-j} > lambda_n;
    elitist: every index with gamma > a must satisfy |y_{j,k}| > lambda_n.
    """
    for j, g in trace.gammas.items():
        significant = g > cls.threshold_a
        if not significant.any():
            continue
        if cls.kind == "limited":
            if 2.0**-j <= cls.lambda_n:
                return False
        else:
            y = trace.observation.y.level(j)
            if np.any(np.abs(y[significant]) <= cls.lambda_n):
                return False
    return True
