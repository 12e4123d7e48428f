"""Observation models: the Gaussian sequence model and i.i.d. density sampling.

Sequence observations add independent Gaussian noise of standard deviation
n^{-1/2} to every coefficient up to the requested depth, zero coefficients
included, and ``simulate_sequence`` returns the observed coefficient tree.
The noise is one draw in the trees' heap order (see dyadic), so observing a
truth is one array add.  The risk engine runs the same steps on a stack of
replicates, one row per seed (``_noise``, ``_observed``), and adds one noise
stack to each of several truths, to the depth its estimator reads.  Under a
threshold lam it draws the same law in another order, and only where a
coefficient can be kept (``_ThresholdNoise``): the normals of |Z| >= t,
t = lam / (2 sigma), are drawn first, wherever they fall, and the others
only through the deepest level on which some truth's largest |theta| reaches
lam - sigma t; a coefficient left undrawn is one that no threshold keeps.
Density samples are drawn from the normalized, nonnegative part of a
wavelet-specified density on a fine dyadic grid, each point from one 64-bit
word: an alias table picks its cell, and the word's last bits place it in
the cell.  A DensitySampler holds that table for one truth, so replicates
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
import math
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


# A threshold replicate's normals split at t standard deviations where t is at
# least this, so that about 1.2% of them or fewer lie past it.
_MIN_SPLIT = 2.5


def _split_point(n: int, lam: float) -> float:
    """The split point t = lam / (2 sigma), sigma = n^{-1/2}, of a threshold
    replicate's normals where it is at least _MIN_SPLIT, else inf (no split)."""
    t = lam / (2.0 * n**-0.5)
    return t if t >= _MIN_SPLIT else math.inf


def _split_normals(rng: np.random.Generator, t: float, size: int, width: int):
    """size standard normals in heap order, drawn split at t > 0 from rng: the
    count of those with |Z| >= t (Binomial(size, q), q = erfc(t / sqrt 2)),
    their positions (a uniform subset of the size indices, in the order
    Generator.choice gives them), their signed values (_normal_tail), then
    the others in heap order (_normals_below), only for the indices below
    width.  Given the count, the positions are uniform and the values
    independent, so the normals are i.i.d. N(0, 1).  Returns the normals of
    the indices below width, every one drawn; the positions of the
    exceedances at or past width; and their values.  A wider draw draws the
    same normals and more: the draw to size (the full realization) holds
    this one's."""
    count = rng.binomial(size, math.erfc(t / math.sqrt(2.0)))
    where = rng.choice(size, count, replace=False, shuffle=False)
    values = _normal_tail(rng, t, count)
    inside = where.astype(np.float64) < width  # exact: see _ThresholdNoise.stack
    placed = where[inside]
    z = np.empty(width)
    free = np.ones(width, bool)
    free[placed] = False
    z[free] = _normals_below(rng, t, width - len(placed))
    z[placed] = values[inside]
    return z, where[~inside], values[~inside]


def _normal_tail(rng: np.random.Generator, t: float, count: int) -> np.ndarray:
    """count draws of Z given |Z| >= t, t > 0, by Marsaglia's (1964) tail
    method: |Z| = x = sqrt(t^2 - 2 log U) for U uniform, kept where V x < t
    for V uniform, and a third uniform gives its sign.  The uniforms come
    from Generator.random, so U = 1 - random() >= 2^-53 and
    |Z| <= sqrt(t^2 + 106 log 2).  Each round draws a quarter more candidates
    than are missing, as about a tenth are rejected at t >= 2.5."""
    kept = np.empty(0)
    while len(kept) < count:
        short = count - len(kept)
        u = rng.random((3, short + short // 4 + 2))
        x = np.sqrt(t * t - 2.0 * np.log(1.0 - u[0]))  # 1 - u[0] is exact
        kept = np.concatenate((kept, np.where(u[2] < 0.5, -x, x)[u[1] * x < t]))
    return kept[:count]


def _normals_below(rng: np.random.Generator, t: float, count: int) -> np.ndarray:
    """The first count standard normals of rng's stream with |z| < t, in order.
    Each round draws a 32nd more than are missing, as at most 1.25% pass t >= 2.5."""
    kept = np.empty(0)
    while len(kept) < count:
        short = count - len(kept)
        z = rng.standard_normal(short + short // 32 + 2)
        kept = np.concatenate((kept, z[np.abs(z) < t]))
    return kept[:count]


class _ThresholdNoise(NamedTuple):
    """The noise of a threshold replicate at one (n, lam), drawn only where a
    coefficient can be kept.

    Each row is a function of (seed, n, lam) alone: _split_normals' draw of
    the 2^(R + 1) heap indices to the rule's read depth R (at most
    MAX_DEPTH), split at t = _split_point(n, lam), times sigma = n^{-1/2}.
    It holds every noise through level N, the deepest level on which the
    largest |theta| of any truth (peaks, per level through the deepest
    observed depth D) reaches lam - sigma t, at least level 0, and past it
    only the exceedances that can reach lam; elsewhere the noise is 0 and
    the truth is observed as theta.

    No threshold keeps a coefficient left undrawn.  The row observes y =
    fl(theta + fl(sigma z)), and rounding to nearest is monotone and odd, so
    |y| <= fl(P + E) for |theta| <= P and |fl(sigma z)| <= E.  Past N, a
    normal with |z| < t has E <= fl(sigma t), and P the level's peak gives
    fl(P + E) below floor = lam (1 - 2^-50), which rounds to at most lam, a
    margin of a few units in the last place, so no row keeps it, hard
    (|y| >= lam) or soft (|y| > lam).  An exceedance past N is placed only
    where fl(P + |fl(sigma z)|) is at least floor, which widens its row to
    its level: such a row is rare, as |z| must pass (lam - P) / sigma > t.
    So the estimate and its loss are those of the full realization (every
    level drawn) bit for bit.
    """

    scale: float  # sigma
    t: float
    size: int  # 2^(R + 1)
    width: int  # 2^(N + 1), the heap indices every row draws
    peaks: np.ndarray
    floor: float

    @classmethod
    def plan(cls, n: int, lam: float, depth: int, peaks: np.ndarray) -> "_ThresholdNoise | None":
        """The draw at n under lam for a rule of read depth depth and truths of
        the given level peaks (levels 0..D), or None where t is inf: there
        the rows are _noise's."""
        t = _split_point(n, lam)
        if t == math.inf:
            return None
        scale = n**-0.5
        floor, bound = lam * (1.0 - 2.0**-50), t * scale
        level = next((j for j in range(len(peaks) - 1, 0, -1) if peaks[j] + bound >= floor), 0)
        return cls(scale, t, 2 << min(depth, MAX_DEPTH), 2 << level, peaks, floor)

    def stack(self, seeds) -> tuple[np.ndarray, dict]:
        """Each seed's noise row as one stack 2^(N + 1) wide, and by row index
        the rows that an exceedance able to reach lam widens: as wide as the
        deepest such one's level, the noise past N being 0 but at those
        exceedances."""
        stack, wide = np.empty((len(seeds), self.width)), {}
        for b, seed in enumerate(seeds):
            z, where, values = _split_normals(np.random.default_rng(seed), self.t, self.size,
                                              self.width)
            np.multiply(z, self.scale, out=stack[b])
            # the positions as doubles, exact below 2^53, are compared in the float
            # kernels the run loads anyway (an int64 comparison adds 128 KB of numpy
            # code to a probe_sweep run's peak RSS), and heap index k lies on level
            # floor(log2 k), the exponent of float(k)
            at = where.astype(np.float64)
            within = at < 1 << len(self.peaks)  # levels past D are observed by no truth
            where, values = where[within], values[within] * self.scale
            levels = (at[within].view(np.int64) >> 52) - 1023
            reached = self.peaks[levels] + np.abs(values) >= self.floor
            if reached.any():
                where = where[reached]
                wide[b] = np.zeros(1 << int(where.max()).bit_length())
                wide[b][: self.width] = stack[b]
                wide[b][where] = values[reached]
        return stack, wide


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
    """Alias-table sampler of the density specified by a coefficient tree.

    Built once per truth: cell_masses gives the law on the 2^res cells and
    from_tree its alias table (_alias_table): table[b] holds bucket b's
    threshold in its high 32 bits and its alias in its low 32.  A point is
    one 64-bit word of the seed's PCG64 stream, read as three bit fields: the
    top res bits pick bucket b, the next 32 are a coin, which puts the point
    in cell b if it is below b's threshold and in b's alias otherwise, and
    the last 32 - res place the point inside its cell.  So every point lies
    on the grid of 2^32 cells, and each cell's probability is a multiple of
    2^-(res + 32), the law within 2^-31 of cell_masses' in L1.  The table is
    read-only, so one sampler serves every replicate, and the risk engine's
    forked workers inherit it.
    """

    res: int
    table: np.ndarray
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
        the sampled law must be that tree.  Beside the synthesized grid it
        holds one writable grid-sized array: the negative part, whose
        integral is the clipped mass, and then the clipped, normalized law."""
        res = f_tree.j_max + DENSITY_GRID_PAD
        if res > MAX_DEPTH:
            raise ValueError(f"density grid of 2^{res} cells is finer than 2^{MAX_DEPTH}: "
                             f"j_max must be <= {MAX_DEPTH - DENSITY_GRID_PAD}")
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
        return masses, clipped_mass

    @classmethod
    def from_tree(cls, f_tree: CoefficientTree, filt: WaveletFilter) -> "DensitySampler":
        """The sampler of cell_masses' law, refusing what it refuses."""
        masses, clipped_mass = cls.cell_masses(f_tree, filt)
        table = _alias_table(masses)
        table.flags.writeable = False
        return cls(f_tree.j_max + DENSITY_GRID_PAD, table, clipped_mass)

    def cells(self, n: int, seed, res: int) -> np.ndarray:
        """The cell of the 2^res grid (res <= self.res + 32) that each point of
        sample(n, seed) falls in, _cells(sample(n, seed).points, res) bit for
        bit: its cell of the sampler's grid, shifted right onto a coarser
        grid or followed by the top res - self.res bits of its place on a
        finer one.  Shifted left by self.res in their own array, the words
        hold the coin in their high halves and the place atop their low ones.
        The seed is anything default_rng takes; its PCG64 words are those
        Generator.random cuts its uniforms from."""
        if n < 1:
            raise ValueError("n must be >= 1")
        words = np.random.default_rng(seed).bit_generator.random_raw(n)
        cells = np.right_shift(words, 64 - self.res).view(np.int64)  # the buckets
        entry = self.table.take(cells).view(np.uint32)
        words <<= self.res
        halves = words.view(np.uint32)
        np.copyto(cells, entry[_LOW::2], where=halves[_HIGH::2] >= entry[_HIGH::2])
        shift = res - self.res
        if shift <= 0:
            cells >>= -shift
        else:
            cells <<= shift
            cells |= halves[_LOW::2] >> (32 - shift)
        return cells

    def sample(self, n: int, seed) -> DensitySample:
        """Draw n i.i.d. points; bit-identical for identical (n, seed).  The
        points are their cells of the 2^32 grid over 2^32, the cells the risk
        engine reads through cells(), so each lies in [0, 1)."""
        return DensitySample(n=n, points=self.cells(n, seed, 32) * 2.0**-32)


# The uint32 half of a uint64 that holds its high 32 bits, and the other half.
_HIGH = int(np.little_endian)
_LOW = 1 - _HIGH


_SWEEP = 1 << 12  # cells per chunk of _alias_table's sweeps


def _alias_table(masses: np.ndarray) -> np.ndarray:
    """Walker's alias table of N = 2^res cell masses, from prefix sums and
    searches, swept over chunks of cells (Hübschle-Schneider & Sanders 2022).

    A bucket holds U = 2^32 units.  Cell c gets W_c = floor(N U masses[c]),
    the largest cell also what the floors left, so the law is within 2^-31 of
    the masses in L1.  A small cell (W_c < U) keeps W_c of its bucket, its
    threshold, and takes its deficit U - W_c from its alias; a large one has
    W_c - U to give.  Laid end to end in cell order, the deficits and the
    excesses span the same interval.  A small cell's alias is the large cell
    whose excess holds the start of its deficit.  The deficits that start in
    a large cell's span end past it by its overshoot: it keeps U - overshoot
    of its bucket and takes the rest from the next large cell, whose span
    starts where its own ends; with no overshoot it is its own alias, at
    threshold 0.  A cell of zero mass has threshold 0 and is no alias.  The
    table is written over the masses' array by two sweeps in chunks of
    _SWEEP cells.  The first writes the small cells, their deficits laid
    end to end across chunks, and each large cell's keep over its excess
    sum once the deficits pass its span's end; the second writes the large
    cells.  Beside the table the build holds 16 bytes per large cell."""
    n_cells, unit = len(masses), 1 << 32
    weights = np.multiply(masses, float(n_cells * unit), out=masses.view(np.int64),
                          casting="unsafe")  # truncated
    weights[np.argmax(weights)] += n_cells * unit - int(weights.sum())
    large = np.flatnonzero(weights >= unit)
    ends = weights.take(large) - unit  # of each excess, then each large cell's keep
    np.cumsum(ends, out=ends)
    done = int(np.searchsorted(ends, 0, side="right"))  # keeps written: these spans are empty
    ends[:done] = unit
    carry = 0  # the end of the deficits swept so far, past the spans before done
    for c in range(0, n_cells, _SWEEP):
        chunk = weights[c : c + _SWEEP]
        small = np.flatnonzero(chunk < unit)
        if not len(small):
            continue
        kept = chunk.take(small)
        bounds = np.empty(len(small) + 1, np.int64)  # where the deficits start, then each end
        bounds[0] = carry
        np.subtract(unit, kept, out=bounds[1:])
        np.cumsum(bounds, out=bounds)
        carry = int(bounds[-1])
        # the spans that end by carry; a deficit starting past them is in span hi
        hi = done + int(np.searchsorted(ends[done:], carry, side="right"))
        spans = ends[done:hi]
        owner = np.searchsorted(spans, bounds[:-1], side="right")  # counted from done
        kept <<= 32
        kept |= large[done:].take(owner)
        chunk[small] = kept  # W_c, the threshold, read: the chunk's cells are swept
        # per span, the deficits that start before its end: the last ends past it by the
        # overshoot
        held = np.bincount(owner, minlength=len(spans))[: len(spans)]
        spans -= bounds.take(np.cumsum(held, out=held))
        spans += unit
        done = hi
    for c in range(0, len(large), _SWEEP):
        cells, keep = large[c : c + _SWEEP], ends[c : c + _SWEEP]
        full = keep == unit
        alias = large.take(np.arange(c + 1, c + 1 + len(cells)), mode="clip")  # the last is full
        np.copyto(alias, cells, where=full)
        keep[full] = 0
        keep <<= 32
        keep |= alias
        weights[cells] = keep
    return weights.view(np.uint64)


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


def _cells(x: np.ndarray, res: int) -> np.ndarray:
    """The cell of the 2^res grid that each point x of [0, 1] falls in, 1 in
    the last: min(floor(x 2^res), 2^res - 1), a fresh array; x is read, not
    written."""
    n_cells = 1 << res
    cells = np.multiply(x, float(n_cells), out=np.empty(x.shape, np.int64),
                        casting="unsafe")  # truncated as astype does, x left unwritten
    return np.minimum(cells, n_cells - 1, out=cells)
