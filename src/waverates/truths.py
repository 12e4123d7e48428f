"""Truth functions for rate experiments.

The rate claims are scale-invariant (a common rescaling of the truth never
changes a log-log slope asymptotically), but a finite n-grid only resolves an
exponent when the bias-variance transition sweeps through the observed
scales; the builders therefore expose an amplitude so experiments can place
that transition inside their n-grid.

``shell_tree`` is the deterministic finite-scale representative of a
smoothness shell: it carries the same irreducible-fraction weight profile as
the saturating construction but no polynomial-in-j damping, so its level
energies follow an exact power law and fitted slopes are clean at desk scale.
"""

from __future__ import annotations

import functools

import numpy as np

from .dyadic import CoefficientTree, _check_tree_shape, _refuse_bools, reduced_level_array
from .generic import GenericFunctionSpec, build_g

__all__ = [
    "shell_tree",
    "bump_tree",
    "probe_line_truth",
    "uniform_density_tree",
    "density_truth_tree",
]


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# immutable trees: one config's truths share one; typed: True must not hit 1's entry
@functools.lru_cache(maxsize=1, typed=True)
def shell_tree(
    s: float,
    r: float,
    d: int,
    j_max: int,
    amplitude: float = 1.0,
    dither: float = 0.0,
    j_min: int = 0,
) -> CoefficientTree:
    """Self-similar tree on the smoothness-s shell.

    c_{j,k} = amplitude * 2^{-(s - d/r + d/2) j} * 2^{-(d/r) J} with J the
    reduced scale of k / 2^j, for 0 <= j <= j_max.  Level energies decay
    exactly like a power of 2^j, with the within-level spread across reduced
    scales that lets thresholding experiments cross levels gradually.

    ``dither`` > 0 additionally spreads magnitudes log-uniformly over a factor
    2^dither inside every reduced-scale block, renormalized so each block's
    energy is exactly preserved.  This smooths the discrete magnitude ladder
    (slope fits stop seeing level-granularity staircases) without moving any
    level energy, so projection risks are unchanged.
    """
    _refuse_bools(s=s, r=r, amplitude=amplitude, dither=dither, j_min=j_min)
    _check_tree_shape(d, j_max)
    if s - d / r <= 0:
        raise ValueError(f"need s > d/r, got s={s}, d/r={d / r}")
    if dither < 0:
        raise ValueError("dither must be non-negative")
    if not 0 <= j_min <= j_max:
        raise ValueError(f"j_min must lie in [0, {j_max}]")
    envelope = s - d / r + d / 2.0
    coeffs = np.zeros(2 << j_max)
    for j in range(j_min, j_max + 1):
        J = reduced_level_array(j)
        vals = amplitude * 2.0 ** (-envelope * j - (d / r) * J)
        if dither > 0:
            k = np.arange(1 << j, dtype=np.float64)
            m = 2.0 ** (-dither * np.mod(k * _GOLDEN + j * _GOLDEN**2, 1.0))
            count = np.bincount(J, minlength=j + 1).astype(np.float64)
            energy = np.bincount(J, weights=m * m, minlength=j + 1)
            scale = np.sqrt(count / np.where(energy > 0.0, energy, 1.0))
            vals = vals * m * scale[J]
        coeffs[1 << j : 2 << j] = vals
    return CoefficientTree._of(j_max, coeffs)


def bump_tree(d: int, j_max: int, level: int, position: int, amplitude: float) -> CoefficientTree:
    """A single wavelet coefficient of the given amplitude."""
    if not 0 <= level <= j_max:
        raise ValueError(f"level {level} outside [0, {j_max}]")
    if not 0 <= position < 1 << level:
        raise ValueError(f"position {position} outside [0, 2^{level})")
    return CoefficientTree.from_items(d, j_max, 0.0, [((level, position), amplitude)])


def probe_line_truth(
    s: float,
    r: float,
    d: int,
    j_max: int,
    base_amplitude: float,
    alpha: float,
    dither: float = 0.0,
    j_min: int = 0,
) -> CoefficientTree:
    """A point of the probe line: alpha times the saturating tree plus the base
    shell on levels j_min..j_max.  The shell is built, and so its dither and
    j_min checked, also when base_amplitude is 0; it is then not added."""
    spec = GenericFunctionSpec(s=s, r=r, d=d, j_max=j_max)  # refuses a j_max too deep to build
    # by keyword, as perfbench/setup_child.py calls it: both calls share one cache entry
    shell = shell_tree(s, r, d, j_max, base_amplitude, dither=dither, j_min=j_min)
    if not np.isfinite(alpha):  # as tree * alpha refuses it
        raise ValueError(f"a tree can only be scaled by a finite number, got {alpha}")
    coeffs = alpha * build_g(spec).coeffs  # one new array, the shell added in place
    if base_amplitude != 0.0:
        coeffs += shell.coeffs
    return CoefficientTree._of(j_max, coeffs)


def uniform_density_tree(j_max: int) -> CoefficientTree:
    """The uniform density on [0, 1]: scaling coefficient 1, no wavelet part."""
    return CoefficientTree(d=1, j_max=j_max, scaling=1.0)


def density_truth_tree(wavelet_part: CoefficientTree) -> CoefficientTree:
    """Density tree 1 + (wavelet part): unit mass plus zero-mean detail."""
    return uniform_density_tree(wavelet_part.j_max) + wavelet_part
