"""Observation models: the Gaussian sequence model and i.i.d. density sampling.

Sequence observations add independent Gaussian noise of standard deviation
n^{-1/2} to every coefficient up to the requested depth, zero coefficients
included.  The noise is one draw in the trees' heap order (see dyadic), so
observing a truth is one array add.  The risk engine requests the depth its
estimator reads, and ``observe`` adds one noise draw to several truths,
giving each its observed coefficient tree.  Density samples are drawn from
the normalized, nonnegative part of a wavelet-specified density by inverse
CDF on a fine dyadic grid.  A DensitySampler holds that CDF and a guide
table for one truth, so replicates share it; it refuses densities whose
clipped negative mass, or whose mass's distance from 1, exceeds
MAX_CLIPPED_MASS.  Empirical coefficients of depth J average the periodized
scaling functions of level J + 1 at the sample points, read from one cascade
table on the 2^(J+8) grid, one bincount of the points per table row; the
analysis pyramid takes them to every level, so each level reads its wavelet
on that grid.  The observed trees of both models feed the same estimators.

All generation is deterministic given the seed.  The risk engine seeds
each replicate with SeedSequence((master_seed, n, replicate)), whose entropy
hashing gives each (n, replicate) its own stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_DEPTH, CoefficientTree, _freeze
from .wavelet import WaveletFilter, _cascade_table, _pyramid, synthesize

__all__ = [
    "SequenceObservation",
    "DensitySample",
    "DensitySampler",
    "simulate_sequence",
    "observe",
    "empirical_coefficients",
]

DENSITY_GRID_PAD = 8
# Largest integral of the negative part a density tree may have, and largest
# distance of its integral from 1.  Clipping a negative mass m and
# renormalizing moves the sampled density 2m in L^1 from the tree, against
# which the risk is measured; renormalizing a mass 1 + m moves it |m|.
MAX_CLIPPED_MASS = 1e-4
# Forward steps from the guide-table cell before falling back to a binary
# search.  A draw steps once per cell boundary inside its guide bucket, of
# which there are fewer than 1 + mean / local density, so the steps suffice
# wherever the density is at least a quarter of its mean.
_GUIDE_STEPS = 4


@dataclass(frozen=True)
class SequenceObservation:
    """Observed coefficients y = theta + n^{-1/2} v, all indices up to depth j_max."""

    n: int
    y: CoefficientTree

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class DensitySample:
    """n i.i.d. draws from a density on [0, 1]."""

    n: int
    points: np.ndarray

    def __post_init__(self):
        points = _freeze(self.points)
        if self.n < 1 or points.shape != (self.n,):
            raise ValueError(f"expected {self.n} points, got shape {points.shape}")
        if points.size and (points.min() < 0.0 or points.max() > 1.0):
            raise ValueError("sample points must lie in [0, 1]")
        object.__setattr__(self, "points", points)


def simulate_sequence(theta: CoefficientTree, n: int, j_max: int, seed) -> SequenceObservation:
    """Observe theta under Gaussian noise of standard deviation n^{-1/2}.

    Every index up to j_max receives noise, including indices where theta is
    zero; the scaling coefficient is observed under the same noise law, and
    the observation's array holds every level 0..j_max.  The noise is one
    draw of 2^(j_max + 1) standard normals in heap order (the scaling
    coefficient first, then levels in increasing j), so the observation is
    bit-identical for identical inputs, and equal to drawing the scaling
    coefficient and then each level in turn from the same generator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    rng = np.random.default_rng(seed)  # an int seed is read as SeedSequence(seed)
    y = n**-0.5 * rng.standard_normal(2 << j_max)
    base = theta.coeffs[: 2 << j_max]
    y[: len(base)] += base
    return SequenceObservation(n=n, y=CoefficientTree._of(j_max, y))


def observe(theta: CoefficientTree, noise: SequenceObservation, j_max: int) -> CoefficientTree:
    """The tree of theta observed to depth j_max under the noise of an
    observation of zero; its array holds every level 0..j_max.

    noise is simulate_sequence(zero tree, n, J, seed) with J >= j_max.  The
    result equals simulate_sequence(theta, n, j_max, seed).y bit for bit: the
    draws of levels 0..j_max do not depend on J, the zero tree's observation
    is the draw itself, and each sum here is the one simulate_sequence forms.
    """
    drawn = noise.y.coeffs
    if not 0 <= j_max <= noise.y.j_max:
        raise ValueError(f"noise of depth {noise.y.j_max} cannot observe to depth {j_max}")
    base = theta.coeffs[: 2 << j_max]
    y = np.empty(2 << j_max)
    np.add(base, drawn[: len(base)], out=y[: len(base)])
    y[len(base):] = drawn[len(base) : len(y)]
    return CoefficientTree._of(j_max, y)


@dataclass(frozen=True)
class DensitySampler:
    """Inverse-CDF sampler of the density specified by a coefficient tree.

    Built once per truth: cell_masses gives the law, from_tree its CDF and
    guide table, and the points are drawn exactly from that piecewise-constant
    density.  The arrays are read-only, so one sampler serves every replicate,
    and the risk engine's forked workers inherit it.
    """

    res: int
    masses: np.ndarray
    cum: np.ndarray
    guide: np.ndarray
    clipped_mass: float

    @staticmethod
    def cell_masses(f_tree: CoefficientTree, filt: WaveletFilter) -> tuple[np.ndarray, float]:
        """(cell masses, clipped negative mass): the tree synthesized on the grid
        of 2^(j_max + 8) cells, negative values clipped to zero, renormalized.

        Refuses a grid finer than 2^MAX_DEPTH cells, a tree whose
        reconstruction is nonpositive everywhere, whose clipped negative mass
        (the integral of the negative part) exceeds MAX_CLIPPED_MASS, or
        whose mass (the mean of the grid before clipping) differs from 1 by
        more: risks are measured against the unclipped, unnormalized tree, so
        the sampled law must be that tree."""
        res = f_tree.j_max + DENSITY_GRID_PAD
        if res > MAX_DEPTH:
            raise ValueError(f"density grid of 2^{res} cells is finer than 2^{MAX_DEPTH}: "
                             f"j_max must be <= {MAX_DEPTH - DENSITY_GRID_PAD}")
        values = synthesize(f_tree, filt, res).samples
        mass = float(np.mean(values))
        clipped_mass = float(np.maximum(-values, 0.0).sum()) / (1 << res)
        values = np.clip(values, 0.0, None)
        total = values.sum()
        if total <= 0.0:
            raise ValueError("density is identically zero after clipping")
        if clipped_mass > MAX_CLIPPED_MASS:
            raise ValueError(
                f"density has negative mass {clipped_mass:.3g} > {MAX_CLIPPED_MASS:g}; "
                "clipping it would sample a different law than the tree"
            )
        if abs(mass - 1.0) > MAX_CLIPPED_MASS:
            raise ValueError(f"density has mass {mass:.6g}, not 1 within {MAX_CLIPPED_MASS:g}; "
                             "renormalizing it would sample a different law than the tree")
        return values / total, clipped_mass

    @classmethod
    def from_tree(cls, f_tree: CoefficientTree, filt: WaveletFilter) -> "DensitySampler":
        """The sampler of cell_masses' law, refusing what it refuses."""
        masses, clipped_mass = cls.cell_masses(f_tree, filt)
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        # guide[b]: first cell whose cumulative mass reaches b / 2^res
        guide = np.searchsorted(cum, np.arange(len(masses)) / len(masses), side="left")
        for arr in (masses, cum, guide):
            arr.flags.writeable = False
        return cls(f_tree.j_max + DENSITY_GRID_PAD, masses, cum, guide, clipped_mass)

    def locate(self, u: np.ndarray) -> np.ndarray:
        """Cell index of uniforms u in [0, 1): searchsorted(cum, u, side="left").

        The guide table gives a cell at or below the answer, from which
        draws step forward.  About half the draws step once, so the first
        step is one pass over all of them; the few still short then step
        over a shrinking index set, and any still short after _GUIDE_STEPS
        steps (a run of near-empty cells) fall back to a binary search.
        """
        cells = self.guide.take((u * len(self.guide)).astype(np.intp))
        cells += self.cum.take(cells) < u
        short = np.flatnonzero(self.cum.take(cells) < u)
        for _ in range(_GUIDE_STEPS - 1):
            if not short.size:
                return cells
            cells[short] += 1
            short = short[self.cum.take(cells.take(short)) < u.take(short)]
        cells[short] = np.searchsorted(self.cum, u.take(short), side="left")
        return cells

    def sample(self, n: int, seed) -> DensitySample:
        """Draw n i.i.d. points; bit-identical for identical (n, seed)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        u = np.random.default_rng(seed).random(n)
        cells = self.locate(u)
        left = np.where(cells > 0, self.cum[cells - 1], 0.0)
        frac = (u - left) / self.masses[cells]
        points = (cells + np.clip(frac, 0.0, 1.0)) / (1 << self.res)
        return DensitySample(n=n, points=points)


def empirical_coefficients(
    sample: DensitySample, filt: WaveletFilter, j_max: int
) -> CoefficientTree:
    """Empirical wavelet coefficients (1/n) sum_i psi_{j,k}(X_i), levels 0..j_max.

    The sample enters once, through the empirical scaling coefficients of
    level J + 1 (J = j_max): alpha_l = (1/n) sum_i phi_{J+1,l}(X_i), phi read
    on the grid of resolution J + 8.  There phi_{J+1,l} is the table of the
    7-step lowpass cascade (_scaling_table, built once per filter) times
    2^((J+1)/2): a point in cell 2^7 q + r reads row s of the table at phase
    r for l = (q - s) mod 2^(J+1), rows that meet at one l (where the support
    wraps the circle) added first.  Each row is one bincount of the points by
    q, and _fold adds the rows at their shifts.  The periodized analysis
    pyramid (wavelet._pyramid) then takes alpha down to level 0, giving every
    level and the scaling coefficient.  By linearity of the cascade, level j reads
    psi_{j,k} synthesized on the 2^(J+8) grid: level J reads its own 2^(J+8)
    grid, a coarser level a grid finer than 2^(j+8), so a tree's levels
    depend on its depth.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    n_pos, pad = 2 << j_max, DENSITY_GRID_PAD - 1
    table = _scaling_table(filt.taps.tobytes())
    if len(table) > n_pos:
        table = np.array([table[s::n_pos].sum(axis=0) for s in range(n_pos)])
    table = table * 2.0 ** ((j_max + 1) / 2.0)
    cells = _cells(sample.points, j_max + DENSITY_GRID_PAD)
    q, r = cells >> pad, cells & ((1 << pad) - 1)
    per_row = (np.bincount(q, weights=row[r], minlength=n_pos) for row in table)
    a = _fold(per_row, n_pos) * (1.0 / sample.n)
    return _pyramid(a, filt, j_max)


@functools.cache  # keyed by the taps' bytes: one table per filter, in each process
def _scaling_table(taps: bytes) -> np.ndarray:
    """The reversed DENSITY_GRID_PAD - 1 step _cascade_table of taps (their
    bytes), read-only: row s, phi_{J+1,l} on the 2^(J+8) grid for l = q - s."""
    table = _cascade_table(np.frombuffer(taps), DENSITY_GRID_PAD - 1)[::-1]
    table.flags.writeable = False
    return table


def _fold(per_block, n_pos: int) -> np.ndarray:
    """beta[k] = sum_m per_block[m][(k + m) mod n_pos], added in increasing m."""
    beta = np.zeros(n_pos)
    for m, row in enumerate(per_block):
        beta[: n_pos - m] += row[m:]
        beta[n_pos - m:] += row[:m]
    return beta


def _cells(points: np.ndarray, res: int) -> np.ndarray:
    n_cells = 1 << res
    return np.minimum((points * n_cells).astype(np.int64), n_cells - 1)
