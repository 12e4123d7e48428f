"""The explicit saturating function and its weak-exclusion witness.

Builds the coefficient tree whose entries combine a smoothness envelope with
an irreducible-dyadic-fraction weight and a polynomial-in-j damping; the
genericity experiments probe the line f + alpha * g of
truths.probe_line_truth.  The exclusion witness evaluates the closed-form
lower bound on the weak functional whose growth in the threshold exponent
certifies that the construction saturates the weak scaling function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_DEPTH, CoefficientTree, _refuse_bools, reduced_level_array
from .rates import generic_alpha
from .spaces import SmoothnessParams

__all__ = [
    "GenericFunctionSpec",
    "build_g",
    "weak_exclusion_witness",
]


@dataclass(frozen=True)
class GenericFunctionSpec:
    """Parameters of the saturating construction; the damping exponent is 1 + 3/r."""

    s: float
    r: float
    d: int
    j_max: int

    def __post_init__(self):
        _refuse_bools(s=self.s, r=self.r, d=self.d, j_max=self.j_max)
        if self.d != 1:
            raise ValueError(f"dimension must be 1, got {self.d}")
        if self.s - self.d / self.r <= 0:
            raise ValueError(f"need s > d/r, got s={self.s}, d/r={self.d / self.r}")
        if not 1 <= self.j_max <= MAX_DEPTH:
            raise ValueError(f"j_max must lie in [1, {MAX_DEPTH}], got {self.j_max}")

    @property
    def exponent_a(self) -> float:
        return 1.0 + 3.0 / self.r


@functools.lru_cache(maxsize=1)  # trees are immutable: the truths of one config share one
def build_g(spec: GenericFunctionSpec) -> CoefficientTree:
    """Coefficient tree of the saturating function.

    For 1 <= j <= j_max and every position k,

        c_{j,k} = 2^{-(s - d/r + d/2) j} * 2^{-(d/r) J} / j^(1 + 3/r)

    where J is the reduced scale of the irreducible form of k / 2^j.  Level 0
    and the scaling coefficient are zero (the damping is undefined at j = 0,
    and a single level never affects memberships or rates).
    """
    coeffs = np.zeros(2 << spec.j_max)
    for j, _, profile in _shell_levels(spec.s, spec.r, spec.d, 1, spec.j_max):
        coeffs[1 << j : 2 << j] = profile / float(j) ** spec.exponent_a
    return CoefficientTree._of(spec.j_max, coeffs)


def _shell_levels(s: float, r: float, d: int, j_min: int, j_max: int):
    """Yield (j, J, 2^{-(s - d/r + d/2) j - (d/r) J}) for j_min <= j <= j_max, J
    the reduced scales of level j: the shell that build_g damps and shell_tree scales."""
    for j in range(j_min, j_max + 1):
        J = reduced_level_array(j)
        yield j, J, 2.0 ** (-(s - d / r + d / 2.0) * j - (d / r) * J)


@np.errstate(over="ignore")
def weak_exclusion_witness(
    s: float,
    r: float,
    p: float,
    d: int,
    eps: float,
    t_max: int,
) -> list[tuple[int, float]]:
    """Closed-form lower bounds on the weak functional of the construction.

    For each threshold exponent t the bound is

        2^{-(1 - at - eps) p t} / (2^d - 1) * max(term1, term2)

    with at = generic_alpha("threshold").alpha_tilde (s, r, p, d must make SmoothnessParams),

        term1 = max over 0 <= j <= t / (s + d/2)           of 2^{d p j / 2} (1 - 2^{-j d}),
        term2 = max over t / (s + d/2) < j <= t / (s - d/r + d/2)
                                                    of 2^{j (d p / 2 - d)} (2^{r t} 2^{-j r (s + d/2 - d/r)} - 1).

    The exceedance counts reduce to geometric sums over reduced scales, so no
    per-position enumeration is needed.  For valid eps the sequence grows like
    2^{eps p t}, which is the quantitative content of the exclusion argument.
    A bound too large for a double is inf (at s = r = p = 2, from t = 2560 on).
    """
    alpha_tilde = generic_alpha("threshold", SmoothnessParams(s, r, p, d)).alpha_tilde
    if not 0.0 < eps < 1.0 - alpha_tilde:
        raise ValueError(
            f"eps must lie in (0, 1 - {alpha_tilde:.6g}) for these parameters, got {eps}"
        )
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    out = []
    denom = 2.0**d - 1.0
    for t in range(1, t_max + 1):
        t_dense = t / (s + d / 2.0)
        t_sparse = t / (s - d / r + d / 2.0)
        js1 = np.arange(0, math.floor(t_dense) + 1)
        term1 = float(np.max(2.0 ** (d * p * js1 / 2.0) * (1.0 - 2.0 ** (-js1 * d))))
        lo = math.floor(t_dense) + 1
        hi = math.floor(t_sparse)
        if lo <= hi:
            js2 = np.arange(lo, hi + 1, dtype=np.float64)
            vals = 2.0 ** (js2 * (d * p / 2.0 - d)) * (
                2.0 ** (r * t - js2 * r * (s + d / 2.0 - d / r)) - 1.0
            )
            term2 = float(np.max(vals))
        else:
            term2 = 0.0
        bound = 2.0 ** (-(1.0 - alpha_tilde - eps) * p * t) * max(term1, term2) / denom
        out.append((t, bound))
    return out
