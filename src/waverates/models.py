"""Observation models: the Gaussian sequence model and i.i.d. density sampling.

Sequence observations add independent Gaussian noise of standard deviation
n^{-1/2} to every coefficient up to the requested depth, zero coefficients
included, and ``simulate_sequence`` returns the observed coefficient tree.
The noise is one draw in the trees' heap order (see dyadic), so observing a
truth is one array add.  The risk engine runs the same steps on a stack of
replicates, one row per seed (``_noise``, ``_observed``), and adds one noise
stack to each of several truths, to the depth its estimator reads or, under
a threshold, only to the deepest level where a coefficient can reach it
(``rates._cuts``).  Density
samples are drawn from the normalized, nonnegative part of a
wavelet-specified density by inverse CDF on a fine dyadic grid.  A
DensitySampler holds that CDF and a guide table for one truth, so replicates
share it; it refuses densities whose clipped negative mass, or whose mass's
distance from 1, exceeds MAX_CLIPPED_MASS.  Empirical coefficients of depth
J average the periodized scaling functions of level J + 1 at the sample
points, read from one cascade table on the 2^(J+8) grid, one bincount per
table row of the cells the points fall in; the analysis pyramid takes them
to every level, so each level reads its wavelet on that grid.  The risk
engine forms no points: for a stack of replicates ``_sampled_stack`` bins
each replicate's draws on the 2^(J+8) grid straight from the sampler's
kernel (DensitySampler.cells, the kernel sample() runs too), each sample
alone, and runs one pyramid for the stack.  The observed trees of both
models feed the same estimators.

All generation is deterministic given the seed.  The risk engine seeds
each replicate with SeedSequence((master_seed, n, replicate)), whose entropy
hashing gives each (n, replicate) its own stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import MAX_DEPTH, CoefficientTree, _freeze
from .wavelet import WaveletFilter, _cascade_table, _pyramid, synthesize

__all__ = [
    "DensitySample",
    "DensitySampler",
    "simulate_sequence",
    "empirical_coefficients",
]

DENSITY_GRID_PAD = 8
# Largest integral of the negative part a density tree may have, and largest
# distance of its integral from 1.  Clipping a negative mass m and
# renormalizing moves the sampled density 2m in L^1 from the tree, against
# which the risk is measured; renormalizing a mass 1 + m moves it |m|.
MAX_CLIPPED_MASS = 1e-4


@dataclass(frozen=True)
class DensitySample:
    """n i.i.d. draws from a density on [0, 1]."""

    n: int
    points: np.ndarray

    def __post_init__(self):
        points = _freeze(self.points)
        if self.n < 1 or points.shape != (self.n,):
            raise ValueError(f"expected {self.n} points, got shape {points.shape}")
        if points.size and not (points.min() >= 0.0 and points.max() <= 1.0):  # NaN fails too
            raise ValueError("sample points must lie in [0, 1]")
        object.__setattr__(self, "points", points)


def simulate_sequence(theta: CoefficientTree, n: int, j_max: int, seed) -> CoefficientTree:
    """The observed coefficients y = theta + n^{-1/2} v to depth j_max.

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
    return CoefficientTree._of(j_max, _observed(theta.coeffs, _noise(n, j_max, [seed])[0], j_max))


def _noise(n: int, j_max: int, seeds) -> np.ndarray:
    """The noise of standard deviation n^{-1/2} to depth j_max as a stack,
    row b drawn from seeds[b] alone: 2^(j_max + 1) standard normals in heap
    order, scaled by n^{-1/2} in one multiply."""
    noise = np.empty((len(seeds), 2 << j_max))
    for row, seed in zip(noise, seeds):  # an int seed is read as SeedSequence(seed)
        np.random.default_rng(seed).standard_normal(out=row)
    noise *= n**-0.5
    return noise


def _observed(theta: np.ndarray, drawn: np.ndarray, j_max: int) -> np.ndarray:
    """The heap array theta observed to depth j_max under each row of a noise
    stack drawn to depth >= j_max, in one broadcast add: the rows of drawn's
    levels 0..j_max, theta's coefficients added where it has them."""
    base = theta[: 2 << j_max]
    y = np.empty(drawn.shape[:-1] + (2 << j_max,))
    np.add(drawn[..., : len(base)], base, out=y[..., : len(base)])
    y[..., len(base):] = drawn[..., len(base) : y.shape[-1]]
    return y


class DensitySampler(NamedTuple):
    """Inverse-CDF sampler of the density specified by a coefficient tree.

    Built once per truth: cell_masses gives the law, from_tree its CDF and
    guide table, and the points are drawn exactly from that piecewise-constant
    density.  edges is the CDF at the cells' edges, 0 first and 1 from the
    last cell of positive mass on, and cum = edges[1:] its values at their
    right edges.  The arrays are read-only, so one sampler serves every
    replicate, and the risk engine's forked workers inherit it.
    """

    res: int
    masses: np.ndarray
    edges: np.ndarray
    guide: np.ndarray
    clipped_mass: float

    @property
    def cum(self) -> np.ndarray:
        """The CDF at each cell's right edge: a read-only view of edges."""
        return self.edges[1:]

    @staticmethod
    def cell_masses(f_tree: CoefficientTree, filt: WaveletFilter) -> tuple[np.ndarray, float]:
        """(cell masses, clipped negative mass): the tree synthesized on the grid
        of 2^(j_max + 8) cells, negative values clipped to zero, renormalized.

        Refuses a grid finer than 2^MAX_DEPTH cells, a tree whose
        reconstruction is nonpositive everywhere, whose clipped negative mass
        (the integral of the negative part) exceeds MAX_CLIPPED_MASS, or
        whose mass (the mean of the grid before clipping) differs from 1 by
        more: risks are measured against the unclipped, unnormalized tree, so
        the sampled law must be that tree.

        The last law is kept, keyed by the bytes of the tree and the filter,
        so the run's build (validate runs it too) and the run's sampler
        synthesize it once; its masses are read-only."""
        res = f_tree.j_max + DENSITY_GRID_PAD
        if res > MAX_DEPTH:
            raise ValueError(f"density grid of 2^{res} cells is finer than 2^{MAX_DEPTH}: "
                             f"j_max must be <= {MAX_DEPTH - DENSITY_GRID_PAD}")
        return _cell_masses(f_tree.j_max, f_tree.coeffs.tobytes(), filt.name,
                            filt.taps.tobytes(), filt.vanishing_moments)

    @classmethod
    def from_tree(cls, f_tree: CoefficientTree, filt: WaveletFilter) -> "DensitySampler":
        """The sampler of cell_masses' law, refusing what it refuses.

        cum is the cumulative sum of the masses, set to 1 from the last cell
        of positive mass on, so no draw u < 1 passes that cell; it is stored
        after a leading 0 in edges, so a cell's left edge is one gather.  The
        guide table is _guide(cum), built in O(2^res) without a search.
        """
        masses, clipped_mass = cls.cell_masses(f_tree, filt)
        edges = np.zeros(len(masses) + 1)
        np.cumsum(masses, out=edges[1:])
        edges[np.flatnonzero(masses)[-1] + 1:] = 1.0
        guide = _guide(edges[1:])
        for arr in (edges, guide):  # the masses are read-only already
            arr.flags.writeable = False
        return cls(f_tree.j_max + DENSITY_GRID_PAD, masses, edges, guide, clipped_mass)

    def locate(self, u: np.ndarray) -> np.ndarray:
        """Cell index of uniforms u in [0, 1): searchsorted(cum, u, side="right"),
        the first cell whose CDF exceeds u, so never a cell of zero mass.

        The guide table, read at each draw's bucket floor(N u) (its cell of
        the 2^res grid, _cells), gives a cell at or below the answer, from
        which draws step forward.  About half the draws step once: that step
        is one pass over all of them, after which only the draws that stepped
        are checked again.  The few still short (a run of near-empty cells in
        their bucket) take a binary search, which gives the cell stepping on
        would reach.
        """
        cum = self.cum
        cells = self.guide.take(_cells(u, self.res))
        stepped = cum.take(cells) <= u
        cells += stepped
        short = np.flatnonzero(stepped)
        short = short[cum.take(cells.take(short)) <= u.take(short)]
        cells[short] = np.searchsorted(cum, u.take(short), side="right")
        return cells

    def cells(self, n: int, seed, res: int) -> np.ndarray:
        """The cell of the 2^res grid that each point of sample(n, seed) falls
        in, _cells(sample(n, seed).points, res) bit for bit, without forming
        the points: both are one power-of-two scaling of the draws' position
        on the sampler's grid.  The positions are formed in the uniforms'
        array and truncated into a fresh one, so no caller array is written."""
        return _cells(self._positions(n, seed), res, self.res)

    def sample(self, n: int, seed) -> DensitySample:
        """Draw n i.i.d. points; bit-identical for identical (n, seed).  The
        points are the kernel's positions on the 2^res grid over 2^res, the
        positions whose cells the risk engine reads through cells()."""
        return DensitySample(n=n, points=self._positions(n, seed) / (1 << self.res))

    def _positions(self, n: int, seed) -> np.ndarray:
        """2^res times n i.i.d. points drawn from seed: the cell c of each
        uniform u (locate, a cell of positive mass) plus the fraction of that
        cell's mass below u, clipped to [0, 1].  Once located, the uniforms'
        own array becomes the fraction and then the position, in place."""
        if n < 1:
            raise ValueError("n must be >= 1")
        u = np.random.default_rng(seed).random(n)
        cells = self.locate(u)
        t = np.subtract(u, self.edges.take(cells), out=u)
        t /= self.masses.take(cells)
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        t += cells
        return t


@functools.lru_cache(maxsize=1)  # the run's build and its sampler: one synthesis
def _cell_masses(j_max: int, coeffs: bytes, name: str, taps: bytes,
                 vanishing_moments: int) -> tuple[np.ndarray, float]:
    """DensitySampler.cell_masses of the tree and the filter given by their
    fields, the arrays as bytes, past its grid check.  Beside the synthesized
    grid it holds one writable grid-sized array: the negative part, whose
    integral is the clipped mass, and then the clipped, normalized law."""
    f_tree = CoefficientTree._of(j_max, np.frombuffer(coeffs))
    filt = WaveletFilter(name, np.frombuffer(taps), vanishing_moments)
    res = j_max + DENSITY_GRID_PAD
    values = synthesize(f_tree, filt, res).samples
    mass = float(np.mean(values))
    masses = np.negative(values)
    clipped_mass = float(np.maximum(masses, 0.0, out=masses).sum()) / (1 << res)
    total = np.maximum(values, 0.0, out=masses).sum()  # np.clip(values, 0.0, None)
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
    masses /= total
    masses.flags.writeable = False
    return masses, clipped_mass


def _guide(cum: np.ndarray) -> np.ndarray:
    """guide[b] for b < N = len(cum): the first cell whose cumulative mass
    reaches b / N, searchsorted(cum, arange(N) / N, side="left") for a
    nondecreasing cum.  N is a power of two, so cum[c] < b / N exactly when
    floor(N cum[c]) < b: guide[b] counts the cells of each floor below b,
    one bincount and one cumulative sum."""
    counts = np.bincount((cum * len(cum)).astype(np.intp), minlength=len(cum))
    guide = np.zeros(len(cum), dtype=np.intp)
    np.cumsum(counts[: len(cum) - 1], out=guide[1:])
    return guide


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
    cells = _cells(sample.points, j_max + DENSITY_GRID_PAD)
    return CoefficientTree._of(j_max, _empirical_stack([cells], filt, j_max)[0])


def _sampled_stack(sampler: DensitySampler, n: int, seeds, filt: WaveletFilter,
                   j_max: int) -> np.ndarray:
    """The heap arrays of empirical_coefficients(sampler.sample(n, seed), filt,
    j_max) of each seed as the rows of one stack, bit for bit: each sample is
    binned on the 2^(j_max + 8) grid straight from its draws."""
    res = j_max + DENSITY_GRID_PAD
    return _empirical_stack((sampler.cells(n, seed, res) for seed in seeds), filt, j_max)


def _empirical_stack(binned, filt: WaveletFilter, j_max: int) -> np.ndarray:
    """The heap arrays of the empirical coefficients of depth j_max of each
    sample of an iterable, given as the cells of the 2^(j_max + 8) grid its
    points fall in, as the rows of one stack: each sample is binned alone
    into its row of scaling coefficients (a generator's samples are freed one
    by one), and one analysis pyramid takes the stack."""
    alpha = np.array([_scaling_coefficients(cells, filt, j_max) for cells in binned])
    return _pyramid(alpha, filt, j_max)


def _scaling_coefficients(cells: np.ndarray, filt: WaveletFilter, j_max: int) -> np.ndarray:
    """The empirical scaling coefficients of level j_max + 1 of a sample given
    as its cells of the 2^(j_max + 8) grid (see empirical_coefficients).  It
    takes the cells over: they are overwritten with their phases in the
    table, so callers pass an array of their own (_cells makes one)."""
    n_pos, pad = 2 << j_max, DENSITY_GRID_PAD - 1
    table = _scaling_table(filt.taps.tobytes())
    if len(table) > n_pos:
        table = np.array([table[s::n_pos].sum(axis=0) for s in range(n_pos)])
    table = table * 2.0 ** ((j_max + 1) / 2.0)
    q = cells >> pad
    r = np.bitwise_and(cells, (1 << pad) - 1, out=cells)
    per_row = (np.bincount(q, weights=row.take(r), minlength=n_pos) for row in table)
    return _fold(per_row, n_pos) * (1.0 / len(cells))


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


def _cells(x: np.ndarray, res: int, x_res: int = 0) -> np.ndarray:
    """The cell of the 2^res grid that each point x / 2^x_res of [0, 1] falls
    in, 1 in the last: min(floor(x 2^(res - x_res)), 2^res - 1), a fresh array;
    x is read, not written.  Scaling by a power of two is exact, so x and
    x / 2^x_res give the same cells."""
    n_cells = 1 << res
    cells = np.multiply(x, 2.0 ** (res - x_res), out=np.empty(x.shape, np.int64),
                        casting="unsafe")  # truncated as astype does, x left unwritten
    return np.minimum(cells, n_cells - 1, out=cells)
