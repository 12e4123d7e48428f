import math

import numpy as np
import pytest

from waverates import models, wavelet
from waverates.dyadic import CoefficientTree
from waverates.models import (
    DENSITY_GRID_PAD,
    MAX_CLIPPED_MASS,
    DensitySample,
    DensitySampler,
    _noise,
    _observed,
    empirical_coefficients,
    simulate_sequence,
)
from waverates.truths import bump_tree, density_truth_tree, shell_tree
from waverates.wavelet import DAUBECHIES_LOWPASS, WaveletFilter, get_filter, synthesize

HAAR = get_filter("haar")


def small_truth():
    return CoefficientTree.from_items(1, 2, 0.4, [((1, 0), 0.9), ((2, 3), -0.2)])


def test_simulate_sequence_deterministic():
    theta = small_truth()
    a = simulate_sequence(theta, 100, 4, seed=77)
    b = simulate_sequence(theta, 100, 4, seed=77)
    assert a.scaling == b.scaling
    for j in range(5):
        assert np.array_equal(a.level(j), b.level(j))
    c = simulate_sequence(theta, 100, 4, seed=78)
    assert not np.array_equal(a.level(4), c.level(4))


def test_simulate_sequence_replicate_streams_differ():
    theta = small_truth()
    streams = [
        simulate_sequence(theta, 100, 4, seed=np.random.SeedSequence((7, rep))).level(4)
        for rep in range(4)
    ]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(streams[i], streams[j])


def test_simulate_sequence_vanishing_noise():
    theta = small_truth()
    obs = simulate_sequence(theta, 10**12, 3, seed=5)
    dev = max(
        abs(obs.scaling - theta.scaling),
        max(np.max(np.abs(obs.level(j) - theta.level(j))) for j in range(4)),
    )
    assert dev < 1e-3


def test_simulate_sequence_moments():
    theta = small_truth()
    R, n = 10_000, 100
    vals = np.empty(R)
    others = np.empty(R)
    for rep in range(R):
        y = simulate_sequence(theta, n, 2, seed=np.random.SeedSequence((123, rep)))
        vals[rep] = y.get(1, 0)
        others[rep] = y.get(2, 1)
    # unbiased: mean within 4 / sqrt(R n)
    assert abs(vals.mean() - 0.9) < 4.0 / np.sqrt(R * n)
    # variance 1/n within 10%
    assert abs(vals.var(ddof=1) - 1.0 / n) < 0.1 / n
    # white across indices: standardized cross-correlation < 4 / sqrt(R)
    z1 = (vals - 0.9) * np.sqrt(n)
    z2 = others * np.sqrt(n)
    assert abs(np.mean(z1 * z2)) < 4.0 / np.sqrt(R)


def test_simulate_sequence_fills_all_indices():
    theta = CoefficientTree.zeros(1, 1)
    obs = simulate_sequence(theta, 4, 5, seed=1)
    for j in range(6):
        assert np.all(obs.level(j) != 0.0)


def test_observe_equals_simulating_the_truth():
    # common random numbers: one noise draw to depth 6 observes trees of other
    # depths and missing levels as simulate_sequence does with the same seed
    trees = [small_truth(), shell_tree(2, 2, 1, 6, 3.0, dither=2.0, j_min=2),
             CoefficientTree.zeros(1, 3)]
    for n, seed in ((100, 4), (4096, np.random.SeedSequence((9, 4096, 3)))):
        noise = _noise(n, 6, [seed])
        for theta in trees:
            for j_max in range(min(theta.j_max, 6) + 1):
                got = _observed(theta.coeffs, noise, j_max)[0]
                assert got.tobytes() == simulate_sequence(theta, n, j_max, seed).coeffs.tobytes()


@pytest.mark.parametrize("J", [0, 1, 5, 16])
def test_noise_is_one_draw_in_heap_order(J):
    # the one draw of 2^(J+1) normals equals drawing the scaling coefficient
    # and then each level in turn: a generator that chunked its stream
    # differently would change every observation
    seed, n = np.random.SeedSequence((3, 512, J)), 512
    rng = np.random.default_rng(seed)
    sigma = n**-0.5
    want = [sigma * rng.standard_normal()]
    for j in range(J + 1):
        want.extend(sigma * rng.standard_normal(1 << j))
    y = simulate_sequence(CoefficientTree.zeros(1, J), n, J, seed)
    assert y.coeffs.tobytes() == np.array(want).tobytes()
    assert list(y.levels) == list(range(J + 1))


def test_observed_and_empirical_trees_populate_every_level():
    theta = CoefficientTree(1, 8, 0.3, {2: np.ones(4), 5: np.zeros(32)})
    for j_max in (0, 3, 6):
        assert simulate_sequence(theta, 100, j_max, 4).levels.keys() == set(range(j_max + 1))
    sample = DensitySampler.from_tree(CoefficientTree(1, 3, 1.0), HAAR).sample(300, seed=1)
    for j_max in (0, 2, 4):
        beta = empirical_coefficients(sample, HAAR, j_max)
        assert beta.levels.keys() == set(range(j_max + 1))
        assert beta.coeffs.size == 2 << j_max


def test_sample_density_uniform():
    sample = DensitySampler.from_tree(CoefficientTree(1, 6, 1.0), HAAR).sample(10_000, seed=2)
    pts = np.sort(sample.points)
    ks = np.max(np.abs(pts - np.arange(1, len(pts) + 1) / len(pts)))
    assert ks < 0.02


def test_sample_density_half_interval():
    # density 2 * 1_{[0, 1/2)}: scaling 1 plus a unit Haar coefficient
    tree = CoefficientTree.from_items(1, 3, 1.0, [((0, 0), 1.0)])
    sample = DensitySampler.from_tree(tree, HAAR).sample(10_000, seed=3)
    assert np.max(sample.points) < 0.5


def test_sample_density_rejects_nonpositive():
    tree = CoefficientTree(1, 3, scaling=-1.0)
    with pytest.raises(ValueError, match="identically zero"):
        DensitySampler.from_tree(tree, HAAR)


def test_density_sampler_refuses_mass_other_than_one():
    # the sampler renormalizes, but the risk is measured against the tree itself
    mass = lambda scaling: CoefficientTree.from_items(1, 3, scaling, [((1, 0), 0.1)])
    for scaling in (2.0, 0.5, 1.0 + 2e-4):
        with pytest.raises(ValueError, match=f"density has mass {scaling:.6g}, not 1 within"):
            DensitySampler.from_tree(mass(scaling), HAAR)
    DensitySampler.from_tree(mass(1.0 + 5e-5), HAAR)  # within MAX_CLIPPED_MASS


def test_sample_density_deterministic():
    tree = CoefficientTree(1, 5, 1.0)
    a = DensitySampler.from_tree(tree, HAAR).sample(64, seed=9)
    b = DensitySampler.from_tree(tree, HAAR).sample(64, seed=9)
    assert np.array_equal(a.points, b.points)


def test_density_sample_validation():
    with pytest.raises(ValueError):
        DensitySample(3, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        DensitySample(2, np.array([0.1, 1.2]))
    for bad in (np.nan, np.inf, -np.inf):  # NaN compares false both ways
        with pytest.raises(ValueError, match=r"sample points must lie in \[0, 1\]"):
            DensitySample(3, np.array([0.1, bad, 0.2]))
    points = np.array([0.0, 0.5, 1.0])  # the ends of [0, 1] are inside it
    sample = DensitySample(3, points)
    assert sample.points is points and not points.flags.writeable  # frozen, not copied


def test_empirical_coefficients_single_point_exact():
    # one point of a Haar sample: level j reads 2^(j/2) on the first half of
    # psi_{j,k}'s support and -2^(j/2) on the second, within the rounding of
    # the cascade, and exactly 0 off it
    x, j_max = 0.618, 5
    beta = empirical_coefficients(DensitySample(1, np.array([x])), HAAR, j_max)
    gamma = rounding(1, HAAR, j_max)
    assert abs(beta.scaling - 1.0) <= gamma
    for j in range(j_max + 1):
        t = (1 << j) * x
        want = np.zeros(1 << j)
        want[int(t)] = 2.0 ** (j / 2) * (1.0 if t % 1.0 < 0.5 else -1.0)
        got = beta.level(j)
        assert np.array_equal(got == 0.0, want == 0.0), j
        assert np.all(np.abs(got - want) <= gamma * np.abs(want)), j


def test_empirical_coefficients_uniform_unbiased_at_zero():
    runs = 50
    acc = []
    sampler = DensitySampler.from_tree(CoefficientTree(1, 6, 1.0), HAAR)
    for rep in range(runs):
        s = sampler.sample(500, seed=np.random.SeedSequence((5, rep)))
        beta = empirical_coefficients(s, HAAR, 3)
        acc.append([beta.get(1, 0), beta.get(2, 1), beta.get(3, 5)])
    acc = np.asarray(acc)
    means = acc.mean(axis=0)
    stderr = acc.std(axis=0, ddof=1) / np.sqrt(runs)
    assert np.all(np.abs(means) < 3.0 * stderr + 1e-12)
    # scaling function integrates the density: exactly 1 for every sample
    s = sampler.sample(100, seed=0)
    assert abs(empirical_coefficients(s, HAAR, 2).scaling - 1.0) < 1e-12


def test_empirical_coefficients_unbiased_vs_quadrature_oracle():
    # truth 1 + small bump: compare replicate means against the midpoint
    # quadrature of psi_{j,k} * f
    truth = density_truth_tree(bump_tree(1, 4, level=1, position=0, amplitude=0.2))
    fgrid = synthesize(truth, HAAR, 12).samples
    runs, n = 200, 400
    targets = [(1, 0), (2, 1), (0, 0)]
    acc = np.empty((runs, len(targets)))
    sampler = DensitySampler.from_tree(truth, HAAR)
    for rep in range(runs):
        s = sampler.sample(n, seed=np.random.SeedSequence((31, rep)))
        beta = empirical_coefficients(s, HAAR, 2)
        acc[rep] = [beta.get(j, k) for j, k in targets]
    for col, (j, k) in enumerate(targets):
        e = np.zeros(1 << j)
        e[k] = 1.0
        psi = synthesize(CoefficientTree(1, j, 0.0, {j: e}), HAAR, 12).samples
        oracle = float(np.mean(psi * fgrid))
        se = acc[:, col].std(ddof=1) / np.sqrt(runs)
        assert abs(acc[:, col].mean() - oracle) < 4.0 * se + 1e-12, (j, k)


def test_empirical_coefficients_empty_sample():
    with pytest.raises(ValueError):
        empirical_coefficients(DensitySample(1, np.array([0.5])), HAAR, -1)


# -- reference implementations: the searchsorted sampler that DensitySampler
# must reproduce bit for bit, and empirical coefficients read point by point
# from each level's wavelet synthesized at the tree's resolution j_max + 8,
# summed by fsum, with a bound on the rounding of both computations.


def reference_cdf(f_tree, filt):
    res = f_tree.j_max + DENSITY_GRID_PAD
    values = np.clip(synthesize(f_tree, filt, res).samples, 0.0, None)
    masses = values / values.sum()
    cum = np.cumsum(masses)
    cum[np.flatnonzero(masses)[-1]:] = 1.0
    return res, masses, cum


def reference_sample_points(f_tree, filt, n, seed):
    res, masses, cum = reference_cdf(f_tree, filt)
    u = np.random.default_rng(np.random.SeedSequence(seed)).random(n)
    cells = np.searchsorted(cum, u, side="right")
    left = np.where(cells > 0, cum[cells - 1], 0.0)
    frac = (u - left) / masses[cells]
    return (cells + np.clip(frac, 0.0, 1.0)) / (1 << res)


def grid_cells(points, res):
    return np.minimum((points * (1 << res)).astype(np.int64), (1 << res) - 1)


def rounding(n, filt, j_max):
    """gamma_m = m eps / (1 - m eps) for m = n + 2 (j_max + 12)(L + 1): more
    roundings than any path through a tree of depth j_max takes, in
    empirical_coefficients or in the reference, with n point sums and at most
    j_max + 12 tap levels (cascade tables, synthesis and analysis steps),
    each a product and a sum of at most L + 1 terms."""
    m = n + 2 * (j_max + 12) * (len(filt.taps) + 1)
    eps = np.finfo(np.float64).eps
    return m * eps / (1.0 - m * eps)


def psi_grids(j, filt, j_max):
    """psi_{j,0} (j = -1: the scaling function phi) synthesized from a tree
    of depth j_max at resolution j_max + 8, and the same cascade run on the
    taps' absolute values.

    Every partial sum that synthesize forms for psi_{j,k}, and that
    empirical_coefficients forms through its cascade table and analysis
    steps, adds products of taps whose absolute values the absolute cascade
    adds, so the absolute grid read at the points bounds them all."""
    lo, hi = np.abs(filt.taps), np.abs(filt.highpass)
    approx = np.ones(1) if j < 0 else np.zeros(1 << j)
    unit = np.zeros(1 << max(j, 0))
    unit[0] = float(j >= 0)
    for level in range(max(j, 0), j_max + 1):
        approx = wavelet._idwt_step(approx, unit if level == j else np.zeros(1 << level), lo, hi)
    coarse = approx * 2.0 ** ((j_max + 1) / 2.0)
    blocks = wavelet._refined_blocks(coarse, wavelet._cascade_table(lo, DENSITY_GRID_PAD - 1))
    absolute = np.concatenate([block for _, block in blocks])
    levels = {j: unit} if j >= 0 else {}
    tree = CoefficientTree(d=1, j_max=j_max, scaling=float(j < 0), levels=levels)
    return synthesize(tree, filt, j_max + DENSITY_GRID_PAD).samples, absolute


def reference_coefficients(points, filt, j_max):
    """{heap index: (mean, bound)} for the scaling coefficient and each level
    j <= j_max of a tree of depth j_max, every position of a level of at most
    16 and six of a longer one.  The mean is the fsum of psi_{j,k} read at the
    points on the 2^(j_max + 8) grid, over n; the bound on its distance from
    empirical_coefficients is rounding() times the absolute grid's mean, plus
    the mean's own rounding."""
    n, res = len(points), j_max + DENSITY_GRID_PAD
    cells = grid_cells(points, res)
    gamma, eps = rounding(n, filt, j_max), np.finfo(np.float64).eps
    out = {}
    for j in range(-1, j_max + 1):
        signed, absolute = psi_grids(j, filt, j_max)
        n_pos = 1 << max(j, 0)
        stride = len(signed) // n_pos  # psi_{j,k} is psi_{j,0} shifted k strides
        picks = (range(n_pos) if n_pos <= 16
                 else (0, 1, n_pos // 3, n_pos // 2, n_pos - 2, n_pos - 1))
        for k in picks:
            at = (cells - k * stride) % len(signed)
            mean = math.fsum(signed[at]) / n
            bound = gamma * math.fsum(absolute[at]) / n + eps * abs(mean)
            out[0 if j < 0 else n_pos + k] = mean, bound
    return out


def assert_matches_reference(beta, reference):
    for index, (mean, bound) in reference.items():
        assert abs(beta.coeffs[index] - mean) <= bound, (beta.j_max, index)


def level_quadrature(points, filt, j):
    """(beta, absolute): level j read on its own 2^(j+8) grid, psi_{j,k} from
    psi_{j,0} synthesized at resolution j + 8 summed over the points by one
    bincount per support block of 2^8 cells, and the same sums of the
    absolute grid (psi_grids), each over n."""
    res, n_pos = j + DENSITY_GRID_PAD, 1 << j
    cells = grid_cells(points, res)
    block, phase = cells >> DENSITY_GRID_PAD, cells & ((1 << DENSITY_GRID_PAD) - 1)
    grids = [grid.reshape(n_pos, -1) for grid in psi_grids(j, filt, j)]
    support = np.flatnonzero(grids[1].any(axis=1))
    return [sum(np.bincount((block - m) % n_pos, weights=grid[m][phase], minlength=n_pos)
                for m in support) / len(points) for grid in grids]


def demo_density_truth():
    return density_truth_tree(shell_tree(2, 2, 1, 10, amplitude=1.0, dither=2.0, j_min=2))


def upper_half_density():
    # density 2 * 1_{[1/2, 1)}: the CDF is flat over the whole lower half
    return CoefficientTree.from_items(1, 3, 1.0, [((0, 0), -1.0)])


SAMPLER_CASES = [
    (CoefficientTree(1, 6, 1.0), HAAR),
    (demo_density_truth(), get_filter("db2")),
    (density_truth_tree(bump_tree(1, 5, level=2, position=1, amplitude=0.3)), get_filter("db4")),
    (upper_half_density(), HAAR),
]


@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_density_sampler_matches_searchsorted_reference(case):
    tree, filt = SAMPLER_CASES[case]
    sampler = DensitySampler.from_tree(tree, filt)
    assert sampler.cum.base is sampler.edges and sampler.edges[0] == 0.0
    for arr in (sampler.masses, sampler.edges, sampler.cum, sampler.cum.base, sampler.guide):
        assert not arr.flags.writeable
    assert sampler.masses.tobytes() == reference_cdf(tree, filt)[1].tobytes()
    for n, seed in ((1, 4), (5000, 17), (65536, 90210)):
        want = reference_sample_points(tree, filt, n, seed)
        assert np.array_equal(sampler.sample(n, seed).points, want)


def test_density_sampler_locate_flat_runs_and_bucket_edges():
    for tree, filt in (SAMPLER_CASES[1], SAMPLER_CASES[3]):
        sampler = DensitySampler.from_tree(tree, filt)
        _, _, cum = reference_cdf(tree, filt)
        buckets = len(sampler.guide)
        edges = np.arange(buckets) / buckets
        u = np.concatenate([
            edges,  # draws exactly on a guide bucket edge
            np.nextafter(edges[1:], 0.0),
            np.nextafter(edges, 1.0),
            cum[:-1],  # draws exactly on a cell's cumulative mass
            np.random.default_rng(5).random(10_000),
        ])
        want = np.searchsorted(cum, u, side="right")
        assert np.array_equal(sampler.locate(u), want)
    # the flat lower half of the CDF puts thousands of cells in the first
    # guide bucket: draws there lie more than the one step past their guide
    # cell and take the binary search
    start = sampler.guide[(u * buckets).astype(np.intp)]
    assert np.max(want - start) > 1


@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_density_sampler_cells_are_the_sample_binned(case):
    # the engine bins each replicate's draws at its read depth J + 8 without
    # forming points; below, at and above the sampler's own grid, the stack
    # equals the empirical coefficients of sample() bit for bit
    tree, filt = SAMPLER_CASES[case]
    sampler = DensitySampler.from_tree(tree, filt)
    seeds = [np.random.SeedSequence((7, case, rep)) for rep in range(2)]
    # positions on and next to cell edges of the sampler's grid, which few draws hit
    edges = np.arange(0.0, (1 << sampler.res) + 1, max(1, (1 << sampler.res) >> 10))
    t = np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges[:-1], np.inf)])
    for res in range(1, sampler.res + 4):
        assert np.array_equal(models._cells(t, res, sampler.res),
                              grid_cells(t / (1 << sampler.res), res))
    for n in (1, 5000, 65536):
        samples = [sampler.sample(n, seed) for seed in seeds]
        for J in (max(tree.j_max - 2, 0), tree.j_max, tree.j_max + 2):
            res = J + DENSITY_GRID_PAD
            for sample, seed in zip(samples, seeds):
                cells = sampler.cells(n, seed, res)
                assert np.array_equal(cells, grid_cells(sample.points, res))
            stack = models._sampled_stack(sampler, n, seeds, filt, J)
            for row, sample in zip(stack, samples):
                want = empirical_coefficients(sample, filt, J).coeffs
                assert row.tobytes() == want.tobytes(), (n, J)
    # the largest draw random() returns lies in the last cell; where the
    # masses sum below 1, the CDF's last edge (set to 1) leaves it past the
    # cell's mass, so its fraction clips to exactly 1 and its point is 1,
    # which the cell rule puts in the last cell at every resolution
    u = np.array([np.nextafter(1.0, 0.0), 0.5])
    top = sampler.sample(2, Drawn(u)).points
    assert (top[0] == 1.0) == (np.cumsum(sampler.masses)[-1] < 1.0)
    for res in range(1, sampler.res + 4):
        cells = sampler.cells(2, Drawn(u), res)
        assert cells[0] == (1 << res) - 1 and np.array_equal(cells, grid_cells(top, res))


def test_density_sampler_draws_no_cell_of_zero_mass():
    # random() returns exactly 0.0 with probability 2^-53: on a CDF flat from 0
    # that draw takes the first cell of positive mass, not cell 0
    sampler = DensitySampler.from_tree(upper_half_density(), HAAR)
    u = [0.0, 0.7]
    points = sampler.sample(2, Drawn(u)).points
    assert 0.5 <= points[0] <= 1.0
    for res in range(1, sampler.res + 4):
        assert np.array_equal(sampler.cells(2, Drawn(u), res), grid_cells(points, res))


def test_density_sampler_cdf_is_one_from_the_last_cell_of_mass(monkeypatch):
    # masses zero at both ends whose sum rounds below 1: were only the last
    # cell's CDF set to 1, the largest draw would pass the last cell of mass
    masses = np.zeros(256)
    masses[16:240] = np.random.default_rng(0).random(224)
    masses /= masses.sum()
    assert np.cumsum(masses)[-1] < 1.0
    monkeypatch.setattr(DensitySampler, "cell_masses", lambda *args: (masses, 0.0))
    sampler = DensitySampler.from_tree(CoefficientTree(1, 0, 1.0), HAAR)
    assert sampler.res == 8
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], sampler.cum[sampler.cum < 1.0],
                        np.random.default_rng(5).random(10_000)])
    cells = sampler.locate(u)
    assert np.all(masses[cells] > 0.0)
    assert np.array_equal(cells, np.searchsorted(sampler.cum, u, side="right"))
    points = sampler.sample(len(u), Drawn(u)).points
    assert 16 / 256 <= points.min() and points.max() <= 240 / 256


class Drawn(np.random.Generator):
    """A generator whose random(n) returns the given uniforms, a fresh copy
    per call: default_rng passes a Generator through unchanged."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = np.array(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def test_density_cells_write_no_caller_array():
    # the draws become positions and the cells their phases in arrays the
    # kernel made itself: the sampler's tables and a frozen sample's points
    # are read-only, so a write to them would raise here
    tree, filt = SAMPLER_CASES[1]
    sampler = DensitySampler.from_tree(tree, filt)
    sample = sampler.sample(4096, 3)
    for arr in (sample.points, sampler.masses, sampler.edges, sampler.guide):
        assert not arr.flags.writeable
    for J in (tree.j_max - 2, tree.j_max + 2):
        res = J + DENSITY_GRID_PAD
        assert np.array_equal(models._cells(sample.points, res), sampler.cells(4096, 3, res))
        stack = models._sampled_stack(sampler, 4096, [3], filt, J)
        assert stack[0].tobytes() == empirical_coefficients(sample, filt, J).coeffs.tobytes()


def test_density_sampler_guide_counts_cells_below_each_bucket():
    # guide[b] is the first cell whose cumulative mass reaches b / N
    searched = lambda cum: np.searchsorted(cum, np.arange(len(cum)) / len(cum), side="left")
    for tree, filt in SAMPLER_CASES:
        sampler = DensitySampler.from_tree(tree, filt)
        assert np.array_equal(sampler.guide, searched(sampler.cum))
        assert sampler.guide.dtype == searched(sampler.cum).dtype
    # N cum integral at bucket edges, runs of empty cells, cum[-1] = 1
    cum = np.cumsum(np.array([0, 0, 2, 0, 0, 0, 5, 2, 0, 1, 1, 0, 0, 0, 5, 0]) / 16)
    assert cum[-1] == 1.0 and np.all(cum * 16 == np.round(cum * 16))
    below = np.nextafter(cum, 0.0)  # each value just under its bucket edge
    below[-1] = 1.0
    for hand in (cum, below, np.concatenate([np.zeros(8), np.full(8, 1.0)])):
        assert np.array_equal(models._guide(hand), searched(hand))


def test_density_sampler_refuses_clipped_mass():
    # 1 + c psi_{0,0} (Haar) dips to 1 - c on [0, 1/2): negative mass (c - 1) / 2
    lobe = lambda c: CoefficientTree.from_items(1, 2, 1.0, [((0, 0), c)])
    with pytest.raises(ValueError, match="negative mass"):
        DensitySampler.from_tree(lobe(1.5), HAAR)
    small = DensitySampler.from_tree(lobe(1.0 + 1e-5), HAAR)
    assert 0.0 < small.clipped_mass < MAX_CLIPPED_MASS
    assert abs(small.clipped_mass - 5e-6) < 1e-12
    assert DensitySampler.from_tree(demo_density_truth(), get_filter("db2")).clipped_mass == 0.0
    # the integral of the negative part, bit for bit, the sign of a zero too
    for tree, filt in [(lobe(1.0 + 1e-5), HAAR)] + SAMPLER_CASES:
        res = tree.j_max + DENSITY_GRID_PAD
        values = synthesize(tree, filt, res).samples
        want = float(np.maximum(-values, 0.0).sum()) / (1 << res)
        got = DensitySampler.from_tree(tree, filt).clipped_mass
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("name", ["db1", "db2", "db4", "db10"])
def test_empirical_coefficients_match_per_level_reference(name):
    filt = get_filter(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    points = np.concatenate([
        rng.random(3000),
        [0.0, 1.0, np.nextafter(1.0, 0.0), 0.5, 0.25, 3 / 1024, 1 - 2.0**-20],
    ])
    sample = DensitySample(len(points), points)
    for j_max in (0, 1, 2, 3, 4, 6, 9, 12):
        reference = reference_coefficients(points, filt, j_max)
        # the absolute cascade grows with the filter length and depth: to
        # 1e-7 for db10 at depth 12, against errors of a few 1e-16
        assert max(bound for _, bound in reference.values()) < 1e-6
        assert_matches_reference(empirical_coefficients(sample, filt, j_max), reference)


def test_empirical_coefficients_support_spanning_synthesis_blocks(monkeypatch):
    # db10: the support of phi_{J+1,l} spans 19 blocks of 2^7 cells, more than
    # the 2^(J+1) positions for J <= 3, where its rows wrap the circle; the
    # reference synthesizes in blocks of 2^9 cells, so its psi spans several
    monkeypatch.setattr(wavelet, "_BLOCK_SAMPLES", 1 << 9)
    filt = get_filter("db10")
    points = np.random.default_rng(3).random(1000)
    sample = DensitySample(len(points), points)
    for j_max in range(9):
        assert_matches_reference(empirical_coefficients(sample, filt, j_max),
                                 reference_coefficients(points, filt, j_max))


@pytest.mark.parametrize("name", ["db1", "db2", "db4", "db10"])
def test_empirical_coefficients_finest_level_is_its_own_grid_quadrature(name):
    # level J of a depth-J tree reads psi_{J,k} on its own 2^(J+8) grid, as a
    # per-level quadrature does; a coarser level reads the finer 2^(J+8) grid,
    # which only the Haar wavelet, constant on dyadic cells, does not see
    filt = get_filter(name)
    points = np.random.default_rng(7).random(2000)
    sample = DensitySample(len(points), points)
    for j_max in (0, 3, 6, 9):
        beta = empirical_coefficients(sample, filt, j_max)
        bound = 2 * rounding(len(points), filt, j_max)
        for j in range(j_max + 1):
            quadrature, absolute = level_quadrature(points, filt, j)
            within = np.all(np.abs(beta.level(j) - quadrature) <= bound * absolute)
            assert within == (j == j_max or name == "db1"), (j_max, j)


def test_empirical_coefficients_read_the_filter_taps():
    # a filter is its taps, whatever its name
    sample = DensitySampler.from_tree(CoefficientTree(1, 4, 1.0), HAAR).sample(300, seed=8)
    db2 = empirical_coefficients(sample, get_filter("db2"), 4)
    impostor = WaveletFilter(name="db2", taps=np.array(DAUBECHIES_LOWPASS[3]), vanishing_moments=3)
    got = empirical_coefficients(sample, impostor, 4)
    db3 = get_filter("db3")
    assert got.coeffs.tobytes() == empirical_coefficients(sample, db3, 4).coeffs.tobytes()
    assert_matches_reference(got, reference_coefficients(sample.points, db3, 4))
    assert not np.array_equal(got.level(0), db2.level(0))


@pytest.mark.parametrize("j", [0, 2])
def test_empirical_coefficients_of_one_repeated_point(j):
    # n = 2^(j+8) copies of one point have the one point's coefficients: the
    # sum of n copies rounds, within the bound of n point sums
    filt = get_filter("db2")
    n, x = 1 << (j + DENSITY_GRID_PAD), 0.618
    beta = empirical_coefficients(DensitySample(n, np.full(n, x)), filt, j + 2)
    single = empirical_coefficients(DensitySample(1, np.array([x])), filt, j + 2)
    reference = reference_coefficients(np.array([x]), filt, j + 2)
    gamma = rounding(n, filt, j + 2) / rounding(1, filt, j + 2)
    assert_matches_reference(beta, {index: (mean, gamma * bound)
                                    for index, (mean, bound) in reference.items()})
    assert_matches_reference(single, reference)
    assert not np.array_equal(beta.coeffs, single.coeffs)  # so the sums did round
