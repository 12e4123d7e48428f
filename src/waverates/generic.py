"""The explicit saturating function and its weak-exclusion witness.

The saturating function g is one shell term (truths.ShellTerm): a
smoothness envelope times an irreducible-dyadic-fraction weight, damped by a
power of j.  The genericity experiments probe the line f + alpha * g, the
shell sum of g_term(r, alpha) and a shell term.  The exclusion witness
evaluates the closed-form lower bound on the weak functional whose growth in
the threshold exponent certifies that the construction saturates the weak
scaling function.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dyadic import CoefficientTree, _check_tree_shape
from .rates import generic_alpha
from .spaces import SmoothnessParams
from .truths import ShellTerm, shell_sum

__all__ = [
    "GenericFunctionSpec",
    "build_g",
    "g_term",
    "weak_exclusion_witness",
]


class GenericFunctionSpec(NamedTuple):
    """Parameters of the saturating construction, checked by build_g."""

    s: float
    r: float
    d: int
    j_max: int


def g_term(r: float, amplitude: float = 1.0) -> ShellTerm:
    """The saturating function's shell term: damping exponent 1 + 3/r, from
    level 1 on (the damping is undefined at j = 0, and a single level never
    affects memberships or rates)."""
    return ShellTerm(amplitude, 1.0 + 3.0 / r, 1)


def build_g(spec: GenericFunctionSpec) -> CoefficientTree:
    """Coefficient tree of the saturating function: the shell sum of the one
    term g_term(r), the shell profile over j^(1 + 3/r) on levels 1..j_max.
    Level 0 and the scaling coefficient are zero; d must be 1."""
    _check_tree_shape(spec.d, spec.j_max)
    return shell_sum(spec.s, spec.r, spec.j_max, [g_term(spec.r)])


@np.errstate(over="ignore")
def weak_exclusion_witness(s: float, r: float, p: float, d: int, eps: float,
                           t_max: int) -> list[tuple[int, float]]:
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
        # term2 is 0 on an empty range; term1 >= 0 then sets the max alone
        js2 = np.arange(math.floor(t_dense) + 1, math.floor(t_sparse) + 1, dtype=np.float64)
        vals = 2.0 ** (js2 * (d * p / 2.0 - d)) * (
            2.0 ** (r * t - js2 * r * (s + d / 2.0 - d / r)) - 1.0
        )
        term2 = float(np.max(vals, initial=0.0))
        bound = 2.0 ** (-(1.0 - alpha_tilde - eps) * p * t) * max(term1, term2) / denom
        out.append((t, bound))
    return out
