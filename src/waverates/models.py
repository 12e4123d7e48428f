"""Observation models: the Gaussian sequence model and i.i.d. density sampling.

Sequence observations add independent Gaussian noise of standard deviation
n^{-1/2} to every coefficient up to the requested depth, zero coefficients
included.  The risk engine requests the depth its estimator reads, and
``observe`` adds one noise draw to several truths, giving each its observed
coefficient tree.  Density samples are drawn from the normalized,
nonnegative part of a wavelet-specified density by inverse CDF on a fine
dyadic grid.  A DensitySampler holds that CDF and a guide table for one
truth, so replicates share it; it refuses densities whose clipped negative
mass exceeds MAX_CLIPPED_MASS.  Empirical coefficients average the
periodized wavelet at the sample points, read from a cached grid of each
level's wavelet support.  A level with no more grid cells than
sample points depends on the sample only through its cell counts, so it is
summed over those counts; a finer level is summed over the points.  The
observed trees of both models feed the same estimators.

All generation is deterministic given the seed.  Replicated experiments
derive per-replicate seeds from a master seed through numpy's SeedSequence
spawning, which guarantees distinct, non-overlapping streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import CoefficientTree, _freeze
from .wavelet import WaveletFilter, _cascade_table, _coarse_samples, _refined_blocks, synthesize

__all__ = [
    "SequenceObservation",
    "DensitySample",
    "DensitySampler",
    "simulate_sequence",
    "observe",
    "empirical_coefficients",
]

DENSITY_GRID_PAD = 8
# Largest integral of the negative part a density tree may have.  Clipping a
# negative mass m and renormalizing moves the sampled density 2m in L^1 from
# the tree, against which the risk is measured.
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
    zero; the scaling coefficient is observed under the same noise law.  The
    draw order (scaling first, then levels in increasing j) is fixed, so the
    observation is bit-identical for identical inputs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    rng = np.random.default_rng(seed)  # an int seed is read as SeedSequence(seed)
    sigma = n**-0.5
    scaling = theta.scaling + sigma * rng.standard_normal()
    shape = lambda j: (1 << j,) * theta.d
    levels = {}
    for j in range(j_max + 1):
        noise = sigma * rng.standard_normal(shape(j))
        base = theta.levels.get(j)
        levels[j] = noise if base is None else base + noise
    y = CoefficientTree(d=theta.d, j_max=j_max, scaling=scaling, levels=levels)
    return SequenceObservation(n=n, y=y)


def observe(theta: CoefficientTree, noise: SequenceObservation, j_max: int) -> CoefficientTree:
    """The tree of theta observed to depth j_max under the noise of an
    observation of zero.

    noise is simulate_sequence(zero tree, n, J, seed) with J >= j_max.  The
    result equals simulate_sequence(theta, n, j_max, seed).y bit for bit: the
    draws of levels 0..j_max do not depend on J, the zero tree's observation
    is the draw itself, and each sum here is the one simulate_sequence forms.
    """
    y = noise.y
    if not 0 <= j_max <= y.j_max or theta.d != y.d:
        raise ValueError(f"noise of depth {y.j_max} and d={y.d} cannot observe "
                         f"a d={theta.d} tree to depth {j_max}")
    levels = {}
    for j in range(j_max + 1):
        base = theta.levels.get(j)
        levels[j] = y.levels[j] if base is None else base + y.levels[j]
    return CoefficientTree(d=theta.d, j_max=j_max, scaling=theta.scaling + y.scaling,
                           levels=levels)


@dataclass(frozen=True)
class DensitySampler:
    """Inverse-CDF sampler of the density specified by a coefficient tree.

    Built once per truth: the tree is synthesized on a fine grid (resolution
    j_max + 8), negative values are clipped to zero and the result
    renormalized to unit mass; the points are drawn exactly from that
    piecewise-constant density.  Refuses a tree whose reconstruction is
    nonpositive everywhere, or whose clipped negative mass (the integral of
    the negative part, recorded as clipped_mass) exceeds MAX_CLIPPED_MASS:
    risks are measured against the unclipped tree, so the sampled law must be
    that tree.  The arrays are read-only, so one sampler serves every thread.
    """

    res: int
    masses: np.ndarray
    cum: np.ndarray
    guide: np.ndarray
    clipped_mass: float

    @classmethod
    def from_tree(cls, f_tree: CoefficientTree, filt: WaveletFilter) -> "DensitySampler":
        res = f_tree.j_max + DENSITY_GRID_PAD
        values = synthesize(f_tree, filt, res).samples
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
        masses = values / total
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        # guide[b]: first cell whose cumulative mass reaches b / 2^res
        guide = np.searchsorted(cum, np.arange(1 << res) / (1 << res), side="left")
        for arr in (masses, cum, guide):
            arr.flags.writeable = False
        return cls(res, masses, cum, guide, clipped_mass)

    def locate(self, u: np.ndarray) -> np.ndarray:
        """Cell index of uniforms u in [0, 1): searchsorted(cum, u, side="left").

        The guide table gives a cell at or below the answer; draws step
        forward from there, and any still short after _GUIDE_STEPS steps (a
        run of near-empty cells) fall back to a binary search.
        """
        cells = self.guide[(u * len(self.guide)).astype(np.intp)]
        for _ in range(_GUIDE_STEPS):
            short = self.cum[cells] < u
            if not short.any():
                return cells
            cells += short
        short = np.flatnonzero(self.cum[cells] < u)
        cells[short] = np.searchsorted(self.cum, u[short], side="left")
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


# Per filter taps (and level): the support slice of the level's wavelet grid
# with its block count, and the level-0 scaling grid.  Pool threads may race
# to fill an entry; they compute identical read-only arrays, so either write
# serves.
_PSI_CACHE: dict[tuple[bytes, int], tuple[np.ndarray, int]] = {}
_PHI_CACHE: dict[bytes, np.ndarray] = {}


def _wavelet_support(j: int, filt: WaveletFilter) -> tuple[np.ndarray, int]:
    """Support of the periodized wavelet psi_{j,0} on its fine grid.

    Returns (psi, blocks): psi holds the grid values (resolution j + 8) of
    the first `blocks` blocks of 2^8 cells, beyond which psi_{j,0} is zero;
    blocks is at most 2^j, where the support wraps the whole circle.  Every
    position k in the level is a circular shift of position 0 by k blocks.
    The cascade spreads position 0 forward only, over fewer than
    (L - 1) 2^8 cells, so only the synthesis blocks covering those are built.
    """
    key = (filt.taps.tobytes(), j)
    cached = _PSI_CACHE.get(key)
    if cached is not None:
        return cached
    res = j + DENSITY_GRID_PAD
    e = np.zeros(1 << j)
    e[0] = 1.0
    single = CoefficientTree(d=1, j_max=j, scaling=0.0, levels={j: e})
    reach = min((len(filt.taps) - 1) << DENSITY_GRID_PAD, 1 << res)
    parts = []
    table = _cascade_table(filt.taps, DENSITY_GRID_PAD - 1)
    for offset, block in _refined_blocks(_coarse_samples(single, filt), table):
        parts.append(block)
        if offset + len(block) >= reach:
            break
    psi = np.concatenate(parts)
    nz = np.flatnonzero(psi)
    blocks = min(int(nz[-1] >> DENSITY_GRID_PAD) + 1, 1 << j) if nz.size else 0
    psi = psi[: blocks << DENSITY_GRID_PAD].copy()
    psi.flags.writeable = False
    _PSI_CACHE[key] = psi, blocks
    return psi, blocks


def _scaling_grid(filt: WaveletFilter) -> np.ndarray:
    """Grid values (resolution 8) of the periodized scaling function."""
    key = filt.taps.tobytes()
    phi = _PHI_CACHE.get(key)
    if phi is None:
        phi = synthesize(CoefficientTree(d=1, j_max=0, scaling=1.0), filt, DENSITY_GRID_PAD).samples
        _PHI_CACHE[key] = phi
    return phi


def empirical_coefficients(
    sample: DensitySample, filt: WaveletFilter, j_max: int
) -> CoefficientTree:
    """Empirical wavelet coefficients (1/n) sum_i psi_{j,k}(X_i).

    The wavelet is evaluated on a fine grid (resolution j + 8 for level j):
    each point reads the value of its cell.  The cells are computed once at
    resolution j_max + 8; a coarser level's cells are a right shift of those
    (exact, as scaling by a power of two is).  Within a level the positions
    are circular shifts of position 0 by whole blocks of 2^8 cells, so each
    support block m gives per-block sums S[m, b] over the points in block b,
    and beta_{j,k} = sum_m S[m, (k + m) mod 2^j], added in increasing m.

    A level takes one of two paths, by n and j alone.  Where it has no more
    cells than the sample has points (2^(j+8) <= n), S is the contraction of
    the level's cell counts with the support grid: one bincount at the finest
    such level, then adjacent cells added pairwise per coarser level (exact,
    the counts being integers), so the work is per cell, not per point.  Its
    summation order differs from the per-point sum, by at most the recursive
    summation bound n eps sum_i |psi_{j,k}(X_i)| / n.  Finer levels, with
    more cells than points, sum per point: a bincount per support block,
    bit-identical to summing psi_{j,k} over the points in order.  The
    scaling coefficient is always the plain sum over the points.  The count
    arrays hold at most n values, so memory stays O(n).
    """
    if sample.n < 1 or sample.points.size == 0:
        raise ValueError("empty sample")
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    inv_n = 1.0 / sample.n
    fine = _cells(sample.points, j_max + DENSITY_GRID_PAD)
    # scaling function: constant 1 on [0, 1] after periodization
    scaling = float(np.sum(_scaling_grid(filt)[fine >> j_max]) * inv_n)
    stride = 1 << DENSITY_GRID_PAD
    levels = {}
    # count levels 0..top: 2^(j+8) <= n; top = -1 when there are none
    top = max(min(j_max, sample.n.bit_length() - 1 - DENSITY_GRID_PAD), -1)
    if top >= 0:
        counts = np.bincount(fine >> (j_max - top), minlength=stride << top).astype(np.float64)
    for j in range(top, -1, -1):
        if j < top:
            counts = counts[0::2] + counts[1::2]
        psi, blocks = _wavelet_support(j, filt)
        # einsum without optimize: no BLAS, so no dependence on its threads
        per_block = np.einsum("bp,mp->mb", counts.reshape(1 << j, stride),
                              psi.reshape(blocks, stride))
        levels[j] = _fold(per_block, 1 << j) * inv_n
    # point levels: 2^(j+8) > n
    for j in range(top + 1, j_max + 1):
        psi, blocks = _wavelet_support(j, filt)
        cells = fine >> (j_max - j)
        block = cells >> DENSITY_GRID_PAD
        phase = cells & (stride - 1)
        psi = psi.reshape(blocks, stride)
        per_block = (np.bincount(block, weights=psi[m][phase], minlength=1 << j)
                     for m in range(blocks))
        levels[j] = _fold(per_block, 1 << j) * inv_n
    # levels in increasing j: sums over a tree's levels follow their order
    return CoefficientTree(d=1, j_max=j_max, scaling=scaling,
                           levels={j: levels[j] for j in range(j_max + 1)})


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
