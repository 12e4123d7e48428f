"""Periodized orthonormal wavelet transforms on [0, 1].

The transform treats a grid signal (samples on midpoints of the 2^J dyadic
cells) as fine-scale approximation coefficients and runs the classical
two-channel filter-bank cascade with circular convolution.  With orthonormal
taps the cascade is an exact orthogonal map at every depth, so analyze and
synthesize are exact inverses up to floating-point roundoff and the discrete
coefficients obey Parseval against the midpoint quadrature of the signal.
The analysis and synthesis steps act on the last axis, so a stack of signals
or trees, one per row, runs as one call per step, each row's result equal bit
for bit to its own.

Synthesis to a grid finer than the tree runs the two-channel inverse step
only for the levels the tree holds, which gives its samples at resolution
j_max + 1.  The K steps above j_max have no detail input; together they are
one linear map that refines any such samples: upsampling by 2^K and circular
convolution with the K-fold cascade of the lowpass taps.  That map is a small
phase table, built per call in microseconds, applied as one matrix product in
blocks of about 2^15 samples.

``lp_mean`` takes coarse samples and gives the mean of |f|^p over their
refinement without allocating the fine grid.  Each refined sample is a window
of S coarse samples times a table column, so for p = 4 the sum over a
window's 2^K phases is a quadratic form in the S(S+1)/2 pairwise products of
the window, with a matrix built once per (taps, K); it is used where the
table has at most three rows (db1, db2).  Other p and longer filters sum the
refined samples block by block.

The risk engine's loss mean |E - T|^p of an estimate E against a truth T is
this module's: ``_loss_sides`` computes once what of T each depth needs, and
each side takes a stack of estimates, one per row.  At p = 2 it is the
coefficient energy, summed level by level for every row at once.  Other p
split T once per read depth J (``_split_loss``) into a head (the scaling
coefficient and levels <= J) and a tail B (levels > J).  The head is
subtracted from the estimates as coefficients, L = E - head, and L's
2^(J + 1) coarse samples are one stack, so the roundoff scales with the
loss, not with T.  A T whose array ends at or above J has no tail, and
nothing of it is synthesized.  At p = 4 with db1 or db2 the sum of (L - B)^4
expands binomially, and what the tail contributes is computed once: the sum
of B^4, and for each of L's coarse windows the weights of its monomials of
degree 1 to 3 against B^3, B^2 and B; the fine grid is never built.  Other p
and longer filters refine each row of L to B's resolution, subtract B's
samples and refine the difference by ``lp_mean``.  Either way each row takes
one pass over its windows.

Coefficient convention: a signal is

    f = scaling * phi + sum_{j=0..j_max} sum_k c_{j,k} psi_{j,k}

with phi the constant function 1 on [0, 1] and psi_{j,k} L2-normalized
periodized wavelets; for the Haar filter c_{j,k} equals the inner product
2^{j/2} integral of f(x) psi(2^j x - k) exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import CoefficientTree, _freeze

__all__ = [
    "WaveletFilter",
    "GridSignal",
    "get_filter",
    "analyze",
    "synthesize",
    "lp_norm",
    "lp_mean",
    "DAUBECHIES_LOWPASS",
]

# Daubechies lowpass taps, normalized so the taps sum to sqrt(2).  Key is the
# number of vanishing moments; db1 is the Haar filter.  Values computed by
# spectral factorization of the Daubechies polynomial and Newton-polished so
# the orthonormality residuals sit at machine precision.
DAUBECHIES_LOWPASS: dict[int, tuple[float, ...]] = {
    1: (
        0.7071067811865475, 0.7071067811865475,
    ),
    2: (
        0.48296291314453416, 0.8365163037378078, 0.22414386804201342, -0.12940952255126037,
    ),
    3: (
        0.33267055295008263, 0.8068915093110927, 0.45987750211849154, -0.13501102001025458,
        -0.08544127388202667, 0.03522629188570955,
    ),
    4: (
        0.23037781330889656, 0.7148465705529157, 0.6308807679298588, -0.027983769416860087,
        -0.18703481171909314, 0.030841381835560792, 0.03288301166688522, -0.010597401785069044,
    ),
    5: (
        0.16010239797419282, 0.6038292697971893, 0.7243085284377729, 0.1384281459013213,
        -0.24229488706638216, -0.032244869584638736, 0.077571493840046, -0.006241490212798363,
        -0.012580751999082004, 0.0033357252854737413,
    ),
    6: (
        0.11154074335010984, 0.49462389039845456, 0.7511339080210958, 0.3152503517091949,
        -0.22626469396544047, -0.12976686756726002, 0.09750160558732224, 0.0275228655303058,
        -0.03158203931748523, 0.0005538422011602658, 0.004777257510946308, -0.001077301085308569,
    ),
    7: (
        0.07785205408500533, 0.39653931948190757, 0.7291320908462345, 0.46978228740520517,
        -0.14390600392856148, -0.22403618499387454, 0.07130921926683444, 0.08061260915107399,
        -0.03802993693501839, -0.016574541630655366, 0.012550998556098666, 0.0004295779729144538,
        -0.0018016407040429632, 0.0003537137999736264,
    ),
    8: (
        0.054415842243294765, 0.31287159091486694, 0.6756307362974603, 0.5853546836535312,
        -0.015829105256606205, -0.28401554296154596, 0.00047248457339538885, 0.12874742662097013,
        -0.01736930100108112, -0.04408825393162473, 0.013981027917053381, 0.008746094048094514,
        -0.004870352993505395, -0.0003917403736722891, 0.0006754494066185306, -0.00011747678415408617,
    ),
    9: (
        0.0380779473631091, 0.24383467460982336, 0.6048231236882718, 0.6572880780543129,
        0.1331973858276438, -0.29327378327966236, -0.0968407832207558, 0.14854074933776137,
        0.030725681474182642, -0.06763282905902943, 0.00025094711940137286, 0.022361662120259074,
        -0.0047232047596430715, -0.004281503679958074, 0.0018476468830369264, 0.00023038576257594607,
        -0.00025196318847786684, 3.934732024328e-05,
    ),
    10: (
        0.0266700579008674, 0.18817680007897924, 0.527201188932954, 0.6884590394524426,
        0.2811723436588696, -0.24984642432705473, -0.19594627437824183, 0.12736934033491162,
        0.09305736460643575, -0.07139414716600334, -0.02945753682535545, 0.03321267406010453,
        0.0036065535693880456, -0.010733175484609593, 0.0013953517461594183, 0.0019924052960571146,
        -0.0006858566949178434, -0.00011646685542744376, 9.358867044878716e-05, -1.3264202912894258e-05,
    ),
}

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal two-channel filter pair derived from the lowpass taps."""

    name: str
    taps: np.ndarray
    vanishing_moments: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        if self.vanishing_moments < 1:
            raise ValueError("vanishing_moments must be >= 1")
        if abs(taps.sum() - np.sqrt(2.0)) > _ORTHO_TOL:
            raise ValueError(f"filter {self.name}: taps must sum to sqrt(2)")
        L = len(taps)
        for m in range(1, L // 2):
            if abs(np.dot(taps[2 * m :], taps[: L - 2 * m])) > _ORTHO_TOL:
                raise ValueError(f"filter {self.name}: taps fail orthonormality at shift {2 * m}")
        if abs(np.dot(taps, taps) - 1.0) > _ORTHO_TOL:
            raise ValueError(f"filter {self.name}: taps are not unit norm")

    @property
    def highpass(self) -> np.ndarray:
        """Quadrature-mirror highpass: g[t] = (-1)^t h[L-1-t]."""
        h = self.taps
        g = h[::-1].copy()
        g[1::2] *= -1.0
        g.flags.writeable = False
        return g


def get_filter(name: str) -> WaveletFilter:
    """Look up a filter by name: 'haar' or 'dbN' with N vanishing moments in 1..10,
    in any letter case and with blanks around it.  The filter's name is the one
    spelling 'dbN' ('haar' is 'db1'), which a config's manifest also holds."""
    key = name.strip().lower()
    if key == "haar":
        key = "db1"
    if not key.startswith("db"):
        raise KeyError(f"unknown wavelet filter {name!r}")
    try:
        vm = int(key[2:])
        taps = DAUBECHIES_LOWPASS[vm]
    except (ValueError, KeyError):
        raise KeyError(f"unknown wavelet filter {name!r}; available: haar, db1..db10") from None
    return WaveletFilter(name=f"db{vm}", taps=np.array(taps), vanishing_moments=vm)


@dataclass(frozen=True)
class GridSignal:
    """Samples of a function on the midpoints of the 2^J dyadic cells of [0, 1]."""

    resolution_log2: int
    samples: np.ndarray

    def __post_init__(self):
        samples = _freeze(self.samples)
        if self.resolution_log2 < 0:
            raise ValueError("resolution_log2 must be non-negative")
        if samples.shape != (1 << self.resolution_log2,):
            raise ValueError(
                f"expected {1 << self.resolution_log2} samples, got shape {samples.shape}"
            )
        object.__setattr__(self, "samples", samples)

    def grid(self) -> np.ndarray:
        n = 1 << self.resolution_log2
        return (np.arange(n) + 0.5) / n


def _dwt_step(a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One periodized analysis step on the last axis, each row alone:
    approx[m] = sum_t lo[t] a[(2m+t) mod n], detail likewise with hi; the
    cyclic extension is a row and its first L - 1 entries (a gather for a
    row shorter than that, which wraps more than once), then L slice
    multiply-adds, each tap's product formed in one scratch array; the
    adjoint of _idwt_step."""
    n = a.shape[-1]
    L = len(lo)
    if n >= L - 1:
        ext = np.concatenate((a, a[..., : L - 1]), axis=-1)
    else:
        ext = a.take(np.arange(n + L - 1) % n, axis=-1)
    approx = lo[0] * ext[..., 0:n:2]
    detail = hi[0] * ext[..., 0:n:2]
    tmp = np.empty_like(approx)
    for t in range(1, L):
        window = ext[..., t : t + n : 2]
        approx += np.multiply(lo[t], window, out=tmp)
        detail += np.multiply(hi[t], window, out=tmp)
    return approx, detail


def _idwt_step(approx: np.ndarray, detail: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Adjoint of _dwt_step (equals the inverse, the step being orthogonal),
    on the last axis, each row alone."""
    n = 2 * approx.shape[-1]
    L = len(lo)
    ext = np.zeros(approx.shape[:-1] + (n + L - 1,))
    for t in range(L):
        ext[..., t : t + n : 2] += lo[t] * approx
        ext[..., t : t + n : 2] += hi[t] * detail
    out = ext[..., :n].copy()
    tail = ext[..., n:]
    for start in range(0, L - 1, n):  # fold the cyclic overhang back, tile-wise
        seg = tail[..., start : start + n]
        out[..., : seg.shape[-1]] += seg
    return out


def analyze(signal: GridSignal, filt: WaveletFilter, j_max: int) -> CoefficientTree:
    """Periodized wavelet coefficients of a grid signal up to level j_max.

    Exact discrete orthogonal transform of the sample sequence: details at
    levels above j_max are computed and discarded, the cascade always runs
    down to the single level-0 scaling coefficient.
    """
    res = signal.resolution_log2
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    if j_max >= res:
        raise ValueError(f"j_max={j_max} must be below the signal resolution {res}")
    if len(filt.taps) > len(signal.samples):
        raise ValueError(f"filter {filt.name} is longer than the signal")
    coeffs = _pyramid(signal.samples * 2.0 ** (-res / 2.0), filt, j_max)
    return CoefficientTree._of(j_max, coeffs)


def _pyramid(a: np.ndarray, filt: WaveletFilter, j_max: int) -> np.ndarray:
    """The heap arrays of levels 0..j_max of approximations a of level J =
    log2 of a's last axis, one per row: analysis steps J - 1 down to 0, step
    j writing its details into level j when j <= j_max; the last
    approximation is the scaling coefficient."""
    coeffs = np.empty(a.shape[:-1] + (2 << j_max,))
    lo, hi = filt.taps, filt.highpass
    for j in range(a.shape[-1].bit_length() - 2, -1, -1):
        a, detail = _dwt_step(a, lo, hi)
        if j <= j_max:
            coeffs[..., 1 << j : 2 << j] = detail
    coeffs[..., 0] = a[..., 0]
    return coeffs


_BLOCK_SAMPLES = 1 << 15
SYNTHESIS_PAD = 6  # the p != 2 loss refines by SYNTHESIS_PAD - 1 steps (_loss_sides)
_FORM_WINDOWS = 1 << 12
_FORM_MAX_SHIFTS = 3


def _cascade_table(taps: np.ndarray, K: int) -> np.ndarray:
    """Phase table of K zero-detail inverse steps of the lowpass taps.

    K such steps map approximations a (length n) to samples
    out[2^K q + r] = sum_s a[(q - s) mod n] h_K[2^K s + r], where h_K is the
    K-fold cascade of the lowpass taps, of length (L - 1)(2^K - 1) + 1.  The
    table holds h_K, scaled by the 2^(K/2) of the grid normalization, as S
    rows of 2^K phases; the rows run from s = S - 1 down to 0, so that the
    forward window a[q - S + 1 .. q] times the table is output row q.
    """
    h = np.ones(1)
    for _ in range(K):
        up = np.zeros(2 * len(h) - 1)
        up[::2] = h
        h = np.convolve(up, taps)
    phases = 1 << K
    shifts = -(-len(h) // phases)
    padded = np.zeros(shifts * phases)
    padded[: len(h)] = h * 2.0 ** (K / 2.0)
    return np.ascontiguousarray(padded.reshape(shifts, phases)[::-1])


def _coarse_samples(coeffs: np.ndarray, depth: int, filt: WaveletFilter) -> np.ndarray:
    """Grid samples at resolution depth + 1 of the trees of depth `depth`
    whose heap arrays are the rows of coeffs, the levels past their end being
    zero: the two-channel inverse step of each level 0..depth, one call per
    level for every row."""
    lo = filt.taps
    hi = filt.highpass
    a, width = coeffs[..., :1], coeffs.shape[-1]
    for j in range(depth + 1):
        detail = (coeffs[..., 1 << j : 2 << j] if 2 << j <= width
                  else np.zeros(coeffs.shape[:-1] + (1 << j,)))
        a = _idwt_step(a, detail, lo, hi)
    return a * 2.0 ** ((depth + 1) / 2.0)


def _wrapped(coarse: np.ndarray, shifts: int) -> np.ndarray:
    """coarse[(m - shifts + 1) mod n] for m = 0 .. n + shifts - 2: its slice
    [q, q + shifts) is the cyclic window coarse[q - shifts + 1 .. q], wrapping
    as often as a window longer than the grid needs."""
    n, k = len(coarse), shifts - 1
    tiled = coarse if k <= n else np.resize(coarse, -(-k // n) * n)  # whole periods
    return np.concatenate((tiled[len(tiled) - k:], coarse))


def _refined_blocks(coarse: np.ndarray, table: np.ndarray):
    """Yield (offset, block): coarse samples refined by a _cascade_table, in
    order, one product of the cyclic windows with the table per about
    _BLOCK_SAMPLES output samples."""
    shifts, phases = table.shape
    windows = np.lib.stride_tricks.sliding_window_view(_wrapped(coarse, shifts), shifts)
    rows = max(1, _BLOCK_SAMPLES // phases)
    for q in range(0, len(coarse), rows):
        block = np.ascontiguousarray(windows[q : q + rows]) @ table
        yield q * phases, block.ravel()


def _refine(coarse: np.ndarray, filt: WaveletFilter, resolution_log2: int) -> np.ndarray:
    """One row of coarse samples refined to the 2^resolution_log2 grid: the
    zero-detail steps are one product with the phase table of
    _cascade_table, written into the grid block by block."""
    table = _cascade_table(filt.taps, resolution_log2 - (len(coarse).bit_length() - 1))
    samples = np.empty(1 << resolution_log2)
    for offset, block in _refined_blocks(coarse, table):
        samples[offset : offset + len(block)] = block
    return samples


def synthesize(tree: CoefficientTree, filt: WaveletFilter, resolution_log2: int) -> GridSignal:
    """Reconstruct the grid signal of a coefficient tree at the given resolution.

    Levels 0..j_max run the two-channel inverse step (_coarse_samples); the
    remaining resolution_log2 - j_max - 1 zero-detail steps refine those
    samples (_refine).
    """
    if resolution_log2 <= tree.j_max:
        raise ValueError(
            f"resolution 2^{resolution_log2} too coarse for a tree of depth {tree.j_max}"
        )
    coarse = _coarse_samples(tree.coeffs, tree.j_max, filt)
    return GridSignal(resolution_log2, _refine(coarse, filt, resolution_log2))


def _abs_pow(x: np.ndarray, p: float) -> np.ndarray:
    """|x|^p; the p = 4 loss of the sparse regime squares twice, far cheaper than pow."""
    if p == 4:
        sq = x * x
        return np.multiply(sq, sq, out=sq)
    return np.abs(x) ** p


def _check_p(p: float) -> None:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")


def lp_norm(signal: GridSignal, p: float) -> float:
    """L^p norm over [0, 1] by composite midpoint quadrature of the samples."""
    _check_p(p)
    return float(np.mean(_abs_pow(signal.samples, p)) ** (1.0 / p))


def _monomials(shifts: int, degree: int):
    """The degree-k products of a window of `shifts` samples: the index tuples
    i_1 <= ... <= i_k as the columns of a (k, M) array, and for each the number
    of its orderings, its coefficient in (sum_s w_s t_s)^k."""
    combos = list(itertools.combinations_with_replacement(range(shifts), degree))
    orderings = [math.factorial(degree) / math.prod(math.factorial(a.count(s)) for s in set(a))
                 for a in combos]
    return np.array(combos, dtype=np.intp).T, np.array(orderings)


def _monomial_weights(table: np.ndarray, degree: int):
    """(combos, weights) with (w . T[:, r])^k = sum_a weights[a, r] w_a for
    every window w of a _cascade_table T, w_a being the product of w over the
    indices of combos' column a (_monomials(S, k))."""
    combos, orderings = _monomials(table.shape[0], degree)
    weights = np.empty((combos.shape[1], table.shape[1]))
    for m, a in enumerate(combos.T):
        weights[m] = np.prod(table[a], axis=0) * orderings[m]
    return combos, weights


def _window_monomials(wrapped: np.ndarray, combos: np.ndarray, q: int, rows: int) -> np.ndarray:
    """(M, rows) array: the products over combos' columns of the cyclic windows
    q .. q + rows - 1 of the _wrapped samples.  Entry s of window q is
    wrapped[q + s], so the factors are slices of wrapped and the windows are
    never formed; the last column of combos is (S - 1, ..., S - 1)."""
    slices = np.array([wrapped[q + s : q + s + rows] for s in range(combos[-1, -1] + 1)])
    product = slices[combos[0]]
    for index in combos[1:]:
        product *= slices[index]
    return product


def _quartic_gram(table: np.ndarray):
    """(combos, gram) with sum_r (w . T[:, r])^4 = u^T gram u for every window
    w of a _cascade_table T, u being the products w_i w_j over the pairs i <= j
    of combos.  With v_r the degree-2 _monomial_weights of phase r,
    (w . T[:, r])^2 = v_r . u, so gram = sum_r v_r v_r^T, summed over
    _FORM_WINDOWS phases at a time to stay on OpenBLAS's single-threaded path
    (_quartic_sum)."""
    gram = 0.0
    for r in range(0, table.shape[1], _FORM_WINDOWS):
        combos, v = _monomial_weights(table[:, r : r + _FORM_WINDOWS], 2)
        gram = gram + v @ v.T
    return combos, gram


@functools.cache  # keyed by the taps' bytes: one table per filter, in each process
def _quartic_form(taps: bytes, K: int):
    """The _quartic_gram of the K-step cascade of taps (their bytes), where
    that is the cheaper path: the table has at most _FORM_MAX_SHIFTS rows,
    else None.

    A window costs the form P = S(S+1)/2 products and a P x P product, and
    the block path S 2^K products and passes over 2^K samples.  Timed at
    2^15 windows and K = 1..8: with S <= 3 (db1; db2 from K = 2; db3 at
    K = 1) the form was within 5% of the block path at K = 2 and faster at
    every other K, 2x for db2 and 8x for db1 at K = 5, the K of the Monte
    Carlo loss; with S >= 4 (db3 to db10) it was slower at every K up to 5.
    """
    table = _cascade_table(np.frombuffer(taps), K)
    return _quartic_gram(table) if table.shape[0] <= _FORM_MAX_SHIFTS else None


def _quartic_sum(coarse: np.ndarray, form, cross=None, tail_sum: float = 0.0) -> float:
    """sum over the cyclic windows w_q of u_q^T gram u_q, the sum of |f|^4 over
    the grid the coarse samples refine to, plus tail_sum, plus with cross
    weights (_cross_weights) sum_k sum_q m_k(w_q) . C_k[:, q], in that order.

    One pass: per block of windows the pair products u serve the gram term
    and the degree-2 cross term.  _FORM_WINDOWS windows at a time keep the
    gram product of a short table (P <= 6) on OpenBLAS's single-threaded
    path: a threaded BLAS call in each worker process of the risk engine
    would start a BLAS thread per core in every worker, more threads than
    cores.
    """
    combos, gram = form
    shifts, n = combos[-1, -1] + 1, len(coarse)  # the last pair is (S - 1, S - 1)
    wrapped = _wrapped(coarse, shifts)
    total = cross_total = 0.0
    for q in range(0, n, _FORM_WINDOWS):
        rows = min(_FORM_WINDOWS, n - q)
        u = _window_monomials(wrapped, combos, q, rows)
        total += float(np.einsum("ij,ij->", gram @ u, u))
        for k_combos, weights in cross or ():
            m = u if len(k_combos) == 2 else _window_monomials(wrapped, k_combos, q, rows)
            cross_total += float(np.einsum("ij,ij->", m, weights[:, q : q + rows]))
    return total + tail_sum + cross_total


def lp_mean(signal: GridSignal, filt: WaveletFilter, resolution_log2: int, p: float) -> float:
    """Mean of |f|^p over the 2^resolution_log2 grid that refines coarse samples.

    signal holds the samples of f at a coarser resolution (for a tree,
    synthesize(tree, filt, tree.j_max + 1)); the K = resolution_log2 -
    signal.resolution_log2 zero-detail steps refine it, as synthesize does.
    Equals lp_norm(synthesize(tree, filt, resolution_log2), p) ** p up to
    roundoff and never allocates the fine grid.  For p = 4 and a table of at
    most three rows (db1 at any K, db2 at K >= 2; _quartic_form) it sums a
    quadratic form in the pairwise products of each window of coarse
    samples; for other p or longer filters it sums the refined samples
    block by block.
    """
    _check_p(p)
    K = resolution_log2 - signal.resolution_log2
    if K < 0:
        raise ValueError(f"resolution 2^{resolution_log2} is coarser than the signal's "
                         f"2^{signal.resolution_log2}")
    form = _quartic_form(filt.taps.tobytes(), K) if p == 4 else None
    if form is not None:
        total = _quartic_sum(signal.samples, form)
    else:
        total = 0.0
        for _, block in _refined_blocks(signal.samples, _cascade_table(filt.taps, K)):
            total += float(np.sum(_abs_pow(block, p)))
    return total / (1 << resolution_log2)


@functools.cache  # keyed like _quartic_form; the forked replicate workers inherit it filled
def _cross_tensors(taps: bytes, K: int, K_tail: int) -> list:
    """For k = 1, 2, 3: (combos, tail_combos, tensor) with tensor[b, o, a] =
    c_k sum_r weights[a, 2^K_tail o + r] tail_weights[b, r], where weights are
    the degree-k _monomial_weights of the K-step table of taps (their bytes),
    tail_weights the degree-(4 - k) ones of the K_tail-step table and c_k =
    -4, 6, -4 the coefficient of L^k B^(4 - k) in (L - B)^4."""
    taps = np.frombuffer(taps)
    table, tail_table = _cascade_table(taps, K), _cascade_table(taps, K_tail)
    phases = tail_table.shape[1]
    offsets = max(1, _FORM_WINDOWS // phases)  # per block of the K-step table's phases
    tensors = []
    for k, c_k in ((1, -4.0), (2, 6.0), (3, -4.0)):
        tail_combos, tail_weights = _monomial_weights(tail_table, 4 - k)
        combos, _ = _monomials(table.shape[0], k)
        tensor = np.empty((len(tail_weights), table.shape[1] // phases, combos.shape[1]))
        for o in range(0, tensor.shape[1], offsets):
            _, weights = _monomial_weights(table[:, o * phases : (o + offsets) * phases], k)
            block = weights.reshape(-1, phases) @ tail_weights.T
            tensor[:, o : o + offsets] = c_k * block.reshape(len(weights), -1,
                                                             len(tail_weights)).T
        tensors.append((combos, tail_combos, tensor))
    return tensors


def _cross_weights(tail: np.ndarray, taps: bytes, K: int, K_tail: int, cells: int) -> list:
    """For k = 1, 2, 3: (combos, C) with C[a, q] = c_k sum_r weights[a, r]
    B[2^K q + r]^(4 - k) (the terms of _cross_tensors), B being the samples
    the tail samples refine to in K_tail steps, for the `cells` cells q of a
    read depth's coarse grid.  Each of the 2^(K - K_tail) tail windows of a
    cell contributes its degree-(4 - k) monomials times the tensor of its
    offset o in the cell; whole cells of about _FORM_WINDOWS tail windows are
    summed at a time."""
    per_cell = len(tail) // cells
    block = max(1, _FORM_WINDOWS // per_cell)
    out = []
    for combos, tail_combos, tensor in _cross_tensors(taps, K, K_tail):
        wrapped = _wrapped(tail, tail_combos[-1, -1] + 1)
        weights = np.empty((combos.shape[1], cells))
        for q in range(0, cells, block):
            rows = min(block, cells - q)
            m = _window_monomials(wrapped, tail_combos, q * per_cell, rows * per_cell)
            weights[:, q : q + rows] = (m.reshape(len(m), rows, per_cell) @ tensor).sum(0).T
        out.append((combos, weights))
    return out


def _difference(estimates: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each row of a stack of heap arrays less the heap array t, both zero
    past their ends, as tree - takes them: as wide as the longer of the two."""
    out = np.zeros((len(estimates), max(estimates.shape[-1], len(t))))
    out[:, : estimates.shape[-1]] = estimates
    out[:, : len(t)] -= t
    return out


class _SplitLoss(NamedTuple):
    """The truth's side of the p != 2 loss at one read depth J; see
    _split_loss."""

    filt: WaveletFilter
    head: np.ndarray  # the truth's heap array through level J
    depth: int  # J
    coarse_log2: int  # C
    tail: np.ndarray | None  # the tail's samples at resolution C off the quartic sums, if any
    quartic: tuple | None  # (form, cross, sum of B^4) of the quartic sums; None off them
    resolution_log2: int  # F
    p: float

    def mean(self, estimates: np.ndarray) -> np.ndarray:
        """Mean of |E - truth|^p over the 2^F grid for each row E of a stack
        of heap arrays of estimates of depth J: L = E - head as coefficients
        and L's coarse samples in one stack, then one pass over each row."""
        coarse = _coarse_samples(_difference(estimates, self.head), self.depth, self.filt)
        if self.quartic is not None:
            totals = [_quartic_sum(row, *self.quartic) for row in coarse]
            return np.array(totals) / (1 << self.resolution_log2)
        res, means = self.coarse_log2, []
        for row in coarse:
            fine = _refine(row, self.filt, res)
            if self.tail is not None:
                fine -= self.tail
            means.append(lp_mean(GridSignal(res, fine), self.filt, self.resolution_log2, self.p))
        return np.array(means)


def _split_loss(truth: CoefficientTree, filt: WaveletFilter, read: int, coarse_log2: int,
                resolution_log2: int, p: float) -> _SplitLoss:
    """What the mean of |E - truth|^p over the 2^F grid (F = resolution_log2)
    needs of the truth, for any tree E of depth J = read, computed once; the
    grid refines samples at resolution coarse_log2 (C), with J < C, truth.j_max
    < C and C <= F.

    The truth splits into its head (scaling and levels <= J) and its tail B
    (levels > J); E - truth = L - B with L = E - head of depth J, whose
    2^(J + 1) coarse samples .mean forms.  A truth whose array ends at or
    above J has no tail: B = 0, nothing is synthesized, and the loss is that
    of L alone.  Else B's samples at resolution C are synthesized once.  Off
    the quartic sums, .mean refines each row of L to C, subtracts B's samples
    there, if any, and refines the difference by lp_mean.

    The quartic sums apply at p = 4 where both tables below have at most
    _FORM_MAX_SHIFTS rows (db1, db2) and the K-step one at most _BLOCK_SAMPLES
    phases.  A fine sample of L is the window l[q - S + 1 .. q] of its coarse
    samples times a column of the K = F - J - 1 step table, so with (L - B)^4
    expanded binomially

        sum (L - B)^4 = sum_q u_q^T gram u_q + sum B^4 + sum_k sum_q m_k(l_q) . C_k[:, q],

    one _quartic_sum at K per row, m_k the degree-k window monomials and C_k
    their weights against B^(4 - k) over the fine samples of cell q
    (_cross_weights; none without a tail, where sum B^4 is 0).  B's fine
    samples are its samples at resolution C refined by F - C steps, so the C_k
    and sum B^4 come from B's coarse windows; the fine grid is never built.
    """
    K, K_tail = resolution_log2 - read - 1, resolution_log2 - coarse_log2
    head, taps, tail = truth.coeffs[: 2 << read], filt.taps.tobytes(), None
    if len(truth.coeffs) > 2 << read:
        coeffs = truth.coeffs.copy()
        coeffs[: 2 << read] = 0.0  # the tail: the truth's levels past J
        tail = synthesize(CoefficientTree._of(truth.j_max, coeffs), filt, coarse_log2).samples
    forms = ((_quartic_form(taps, K), _quartic_form(taps, K_tail))
             if p == 4 and 1 << K <= _BLOCK_SAMPLES else (None,))
    if None in forms:
        return _SplitLoss(filt, head, read, coarse_log2, tail, None, resolution_log2, p)
    quartic = (forms[0], None, 0.0) if tail is None else (
        forms[0], _cross_weights(tail, taps, K, K_tail, 1 << (read + 1)),
        _quartic_sum(tail, forms[1]))
    return _SplitLoss(filt, head, read, coarse_log2, None, quartic, resolution_log2, p)


class _EnergyLoss(NamedTuple):
    """The truth's side of the p = 2 loss: its level energies."""

    truth: CoefficientTree
    energies: dict  # level j -> the energy of the truth's level j

    def mean(self, estimates: np.ndarray) -> np.ndarray:
        """(E - truth).total_energy() bit for bit for each row E of a stack of
        heap arrays of estimates.  The difference is squared once over the
        stack; each level of the longer array is summed from it in
        increasing j, row by row, as total_energy sums them, and a truth
        level past the stack adds its energy.  A row's zeros past its own
        array's end change nothing: 0 - t is -t exactly, so its level sums
        to the truth's energy, and a zero level past the truth adds 0."""
        t, width = self.truth.coeffs, estimates.shape[-1]
        sq = _difference(estimates, t[:width])
        sq *= sq
        held = width.bit_length() - 1  # levels below held lie in the stack
        # np.add.reduce is np.sum's reduction, without its argument handling
        parts = [np.add.reduce(sq[:, 1 << j : 2 << j], axis=-1) if j < held else self.energies[j]
                 for j in range(max(width, len(t)).bit_length() - 1)]
        # the scaling term in Python floats, as CoefficientTree.total_energy squares it
        scaling = [(float(e) - self.truth.scaling) ** 2 for e in estimates[:, 0]]
        return np.array(scaling) + sum(parts)


def _loss_sides(truth: CoefficientTree, filt: WaveletFilter, depths, p: float) -> dict:
    """What the L^p loss mean |E - truth|^p needs of the truth, computed once,
    for each depth J of depths: an object whose .mean(E) is that loss for each
    row of any stack E of heap arrays of trees of depth J, keyed by J.

    For p = 2 it is the _EnergyLoss, whatever J.  Else it is the _split_loss
    at J: the truth split once into its head, which .mean subtracts from the
    estimates as coefficients, and its tail; the mean runs over the 2^F grid,
    F = C + SYNTHESIS_PAD - 1, that refines samples at resolution
    C = max(J, truth depth) + 1."""
    if p == 2:
        energies = {j: np.sum(a * a) for j, a in truth.levels.items()}
        return dict.fromkeys(depths, _EnergyLoss(truth, energies))
    sides = {}
    # deepest first: the smaller splits reuse the memory the largest one's
    # temporaries free (0.5 MB less peak RSS on perfbench sparse_linear)
    for read in sorted(set(depths), reverse=True):
        coarse = max(read, truth.j_max) + 1
        sides[read] = _split_loss(truth, filt, read, coarse, coarse + SYNTHESIS_PAD - 1, p)
    return sides


def _loss_bound(tree: CoefficientTree, filt: WaveletFilter, p: float) -> float:
    """A bound of the truth's part of the loss, inf where it overflows, with no
    synthesis: at p = 2 its energy sum theta^2; else M^p, M = |c_0| + sum_j 2^(j/2)
    sup|psi| (L - 1) max_k |theta_jk| >= |f|, as at most L - 1 wavelets of a level
    (L taps) overlap at a point and sup|psi| < 2 (db2's 1.73 is get_filter's largest)."""
    with np.errstate(over="ignore"):
        if p == 2:
            return np.square(tree.scaling) + tree.wavelet_energy()
        peaks = sum(2.0 ** (j / 2) * np.abs(a).max() for j, a in tree.levels.items())
        return np.power(abs(tree.scaling) + 2.0 * (len(filt.taps) - 1) * peaks, p)
