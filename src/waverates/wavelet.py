"""Periodized orthonormal wavelet transforms on [0, 1].

The transform treats a grid signal (samples on midpoints of the 2^J dyadic
cells) as fine-scale approximation coefficients and runs the classical
two-channel filter-bank cascade with circular convolution.  With orthonormal
taps the cascade is an exact orthogonal map at every depth, so analyze and
synthesize are exact inverses up to floating-point roundoff and the discrete
coefficients obey Parseval against the midpoint quadrature of the signal.

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

Coefficient convention: a signal is

    f = scaling * phi + sum_{j=0..j_max} sum_k c_{j,k} psi_{j,k}

with phi the constant function 1 on [0, 1] and psi_{j,k} L2-normalized
periodized wavelets; for the Haar filter c_{j,k} equals the inner product
2^{j/2} integral of f(x) psi(2^j x - k) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Look up a filter by name: 'haar' or 'dbN' with N vanishing moments in 1..10."""
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
    return WaveletFilter(name=key, taps=np.array(taps), vanishing_moments=vm)


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
    """One periodized analysis step: approx[m] = sum_t lo[t] a[(2m+t) mod n]."""
    n = len(a)
    L = len(lo)
    ext = np.empty(n + L - 1)
    ext[:n] = a
    ext[n:] = np.resize(a, L - 1)  # cyclic extension; tiles when L - 1 > n
    windows = np.lib.stride_tricks.sliding_window_view(ext, L)[0:n:2]
    return windows @ lo, windows @ hi


def _idwt_step(approx: np.ndarray, detail: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Adjoint of _dwt_step (equals the inverse, the step being orthogonal)."""
    n = 2 * len(approx)
    L = len(lo)
    ext = np.zeros(n + L - 1)
    for t in range(L):
        ext[t : t + n : 2] += lo[t] * approx
        ext[t : t + n : 2] += hi[t] * detail
    out = ext[:n].copy()
    tail = ext[n:]
    for start in range(0, L - 1, n):  # fold the cyclic overhang back, tile-wise
        seg = tail[start : start + n]
        out[: len(seg)] += seg
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
    lo = filt.taps
    hi = filt.highpass
    a = signal.samples * 2.0 ** (-res / 2.0)
    levels = {}
    for j in range(res - 1, -1, -1):
        a, detail = _dwt_step(a, lo, hi)
        if j <= j_max:
            levels[j] = detail
    return CoefficientTree(d=1, j_max=j_max, scaling=float(a[0]), levels=levels)


_BLOCK_SAMPLES = 1 << 15
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


def _coarse_samples(tree: CoefficientTree, filt: WaveletFilter) -> np.ndarray:
    """Grid samples of a tree at resolution j_max + 1: the two-channel
    inverse step of each level 0..j_max."""
    lo = filt.taps
    hi = filt.highpass
    a = np.array([tree.scaling])
    for j in range(tree.j_max + 1):
        a = _idwt_step(a, tree.level(j), lo, hi)
    return a * 2.0 ** ((tree.j_max + 1) / 2.0)


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


def synthesize(tree: CoefficientTree, filt: WaveletFilter, resolution_log2: int) -> GridSignal:
    """Reconstruct the grid signal of a coefficient tree at the given resolution.

    Levels 0..j_max run the two-channel inverse step (_coarse_samples); the
    remaining resolution_log2 - j_max - 1 zero-detail steps are one product
    with the phase table of _cascade_table, written into the grid block by
    block.
    """
    if tree.d != 1:
        raise ValueError("grid synthesis is defined for d=1 trees")
    if resolution_log2 <= tree.j_max:
        raise ValueError(
            f"resolution 2^{resolution_log2} too coarse for a tree of depth {tree.j_max}"
        )
    table = _cascade_table(filt.taps, resolution_log2 - tree.j_max - 1)
    samples = np.empty(1 << resolution_log2)
    for offset, block in _refined_blocks(_coarse_samples(tree, filt), table):
        samples[offset : offset + len(block)] = block
    return GridSignal(resolution_log2, samples)


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


def _quartic_gram(table: np.ndarray):
    """(i, j, gram) with sum_r (w . T[:, r])^4 = u^T gram u for every window
    w of a _cascade_table T, u being the products w_i w_j over the pairs
    i <= j.  With v_r the products T[i, r] T[j, r], doubled off the diagonal,
    (w . T[:, r])^2 = v_r . u, so gram = sum_r v_r v_r^T."""
    i, j = np.triu_indices(table.shape[0])
    v = table[i] * table[j] * np.where(i == j, 1.0, 2.0)[:, None]
    return i, j, v @ v.T


# Per filter taps and K: the _quartic_gram of the K-step cascade, or None.
# Pool threads may race to fill an entry; they compute identical arrays, so
# either write serves.
_QUARTIC_CACHE: dict[tuple[bytes, int], tuple | None] = {}


def _quartic_form(taps: np.ndarray, K: int):
    """The _quartic_gram of the K-step cascade, where that is the cheaper
    path: the table has at most _FORM_MAX_SHIFTS rows, else None.

    A window costs the form P = S(S+1)/2 products and a P x P product, and
    the block path S 2^K products and passes over 2^K samples.  Timed at
    2^15 windows and K = 1..8: with S <= 3 (db1; db2 from K = 2; db3 at
    K = 1) the form was within 5% of the block path at K = 2 and faster at
    every other K, 2x for db2 and 8x for db1 at K = 5, the K of the Monte
    Carlo loss; with S >= 4 (db3 to db10) it was slower at every K up to 5.
    """
    key = (taps.tobytes(), K)
    if key not in _QUARTIC_CACHE:
        table = _cascade_table(taps, K)
        short = table.shape[0] <= _FORM_MAX_SHIFTS
        _QUARTIC_CACHE[key] = _quartic_gram(table) if short else None
    return _QUARTIC_CACHE[key]


def _quartic_sum(coarse: np.ndarray, form) -> float:
    """sum over the cyclic windows w_q of u_q^T gram u_q: the sum of |f|^4
    over the grid the coarse samples refine to.

    The product w_i w_j of window q multiplies the wrapped samples q + i and
    q + j, so each row of u is a slice of lags[j - i], the products of the
    samples j - i apart, and the windows are never formed.  _FORM_WINDOWS
    windows at a time keep the gram product of a short table (P <= 6) on
    OpenBLAS's single-threaded path: a threaded BLAS call inside each pool
    thread of the risk engine stalls both.
    """
    i, j, gram = form
    shifts, n = j[-1] + 1, len(coarse)  # the last pair is (S - 1, S - 1)
    wrapped = _wrapped(coarse, shifts)
    total = 0.0
    for q in range(0, n, _FORM_WINDOWS):
        rows = min(_FORM_WINDOWS, n - q)
        block = wrapped[q : q + rows + shifts - 1]
        lags = [block[: len(block) - d] * block[d:] for d in range(shifts)]
        u = np.empty((len(i), rows))
        for row, (a, b) in enumerate(zip(i, j)):
            u[row] = lags[b - a][a : a + rows]
        total += float(np.einsum("ij,ij->", gram @ u, u))
    return total


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
    form = _quartic_form(filt.taps, K) if p == 4 else None
    if form is not None:
        total = _quartic_sum(signal.samples, form)
    else:
        total = 0.0
        for _, block in _refined_blocks(signal.samples, _cascade_table(filt.taps, K)):
            total += float(np.sum(_abs_pow(block, p)))
    return total / (1 << resolution_log2)
