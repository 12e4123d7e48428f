"""Truth functions for rate experiments.

The rate claims are scale-invariant (a common rescaling of the truth never
changes a log-log slope asymptotically), but a finite n-grid only resolves an
exponent when the bias-variance transition sweeps through the observed
scales; the builders therefore expose an amplitude so experiments can place
that transition inside their n-grid.

A truth is a sum of shell terms (``ShellTerm``), which ``shell_sum`` builds
into one heap array: the saturating function g (``generic.g_term``) is one
damped term, ``shell_tree`` one undamped term, and a point f + alpha * g of
the probe line the sum of both.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

import numpy as np

from .dyadic import CoefficientTree, _check_tree_shape, _freeze, _refuse_bools, reduced_level_array

__all__ = [
    "ShellTerm",
    "shell_sum",
    "shell_tree",
    "bump_tree",
    "density_truth_tree",
]


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class ShellTerm(NamedTuple):
    """amplitude * shell / j^damping on levels j_min.., dithered (see shell_sum)."""
    amplitude: float
    damping: float = 0.0
    j_min: int = 0
    dither: float = 0.0


def shell_sum(s: float, r: float, j_max: int, terms: Iterable[ShellTerm]) -> CoefficientTree:
    """The tree of depth j_max summing the terms; a term is, for j_min <= j <= j_max,

        c_{j,k} = amplitude * 2^{-(s - 1/r + 1/2) j - J/r} / j^damping

    with J the reduced scale of k / 2^j, and zero elsewhere.  An undamped
    term's level energies decay exactly like a power of 2^j, with the
    within-level spread across reduced scales that lets thresholding
    experiments cross levels gradually.

    ``dither`` > 0 additionally spreads magnitudes log-uniformly over a factor
    2^dither inside every reduced-scale block, renormalized so each block's
    energy is exactly preserved.  This smooths the discrete magnitude ladder
    (slope fits stop seeing level-granularity staircases) without moving any
    level energy, so projection risks are unchanged.

    A term of amplitude 0 is checked but not built; the others are built at
    amplitude 1, cached (one config's truths share their terms) and scaled.
    """
    _refuse_bools(s=s, r=r)
    _check_tree_shape(1, j_max)
    if s - 1 / r <= 0:
        raise ValueError(f"need s > 1/r, got s={s}, 1/r={1 / r}")
    coeffs = np.zeros(2 << j_max)
    for term in terms:
        _refuse_bools(**term._asdict())
        if not (all(map(math.isfinite, term[:2])) and 0 <= term.dither < math.inf):
            raise ValueError(f"need a finite amplitude and damping and dither >= 0, got {term}")
        lowest = 0 if term.damping == 0 else 1  # no damping at j = 0
        if not lowest <= term.j_min <= j_max:
            raise ValueError(f"j_min must lie in [{lowest}, {j_max}], got {term.j_min}")
        if term.amplitude != 0.0:  # level by level: no temporary of the whole array
            unit = _unit_term(s, r, j_max, *term[1:])
            for j in range(term.j_min, j_max + 1):
                coeffs[1 << j : 2 << j] += term.amplitude * unit[1 << j : 2 << j]
    return CoefficientTree._of(j_max, coeffs)


@functools.lru_cache(maxsize=2)  # a probe line's two terms
def _unit_term(s: float, r: float, j_max: int, damping: float, j_min: int,
               dither: float) -> np.ndarray:
    """The heap array of one shell_sum term at amplitude 1, read-only.  Each
    level gathers its magnitudes from one value per reduced scale 0..j, at
    the reduced scales of its positions on level j_max."""
    coeffs = np.zeros(2 << j_max)
    finest = reduced_level_array(j_max)
    for j in range(j_min, j_max + 1):
        J = finest[:: 1 << (j_max - j)]
        profile = 2.0 ** (-(s - 1 / r + 0.5) * j - (1 / r) * np.arange(j + 1)) / float(j) ** damping
        vals = profile[J]
        if dither > 0:
            x = np.arange(1 << j, dtype=np.float64) * _GOLDEN + j * _GOLDEN**2
            m = 2.0 ** (-dither * (x - np.floor(x)))  # x >= 0: x mod 1, exactly
            count = np.bincount(J).astype(np.float64)  # every J in [0, j] occurs
            vals = vals * m * np.sqrt(count / np.bincount(J, weights=m * m))[J]
        coeffs[1 << j : 2 << j] = vals
    return _freeze(coeffs)


def shell_tree(s: float, r: float, d: int, j_max: int, amplitude: float = 1.0,
               dither: float = 0.0, j_min: int = 0) -> CoefficientTree:
    """Self-similar tree on the smoothness-s shell: the one undamped term
    amplitude * shell on levels j_min..j_max (see shell_sum); d must be 1."""
    _check_tree_shape(d, j_max)
    return shell_sum(s, r, j_max, [ShellTerm(amplitude, 0.0, j_min, dither)])


def bump_tree(d: int, j_max: int, level: int, position: int, amplitude: float) -> CoefficientTree:
    """A single wavelet coefficient of the given amplitude; from_items refuses a
    (level, position) off the tree's grid."""
    return CoefficientTree.from_items(d, j_max, 0.0, [((level, position), amplitude)])


def density_truth_tree(wavelet_part: CoefficientTree) -> CoefficientTree:
    """Density tree 1 + (wavelet part): unit mass plus zero-mean detail."""
    coeffs = 0.0 + wavelet_part.coeffs  # one copy; as in the tree sum, a -0.0 becomes 0.0
    coeffs[0] += 1.0
    return CoefficientTree._of(wavelet_part.j_max, coeffs)
