import math
import tracemalloc

import numpy as np
import pytest

from waverates import models, wavelet
from waverates.dyadic import CoefficientTree
from waverates.estimators import noise_depth, threshold_estimate, universal_threshold
from waverates.models import (
    DENSITY_GRID_PAD,
    MAX_CLIPPED_MASS,
    DensitySample,
    DensitySampler,
    _noise,
    _normal_tail,
    _observed,
    _split_normals,
    _split_point,
    _ThresholdNoise,
    empirical_coefficients,
    simulate_sequence,
)
from waverates.rates import EstimatorSpec, monte_carlo_risk
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


@pytest.mark.parametrize("t", [2.5, 3.5])
def test_split_draw_is_normal(t):
    # the full realization of 32 draws of 2^16 normals split at t: per level
    # (the scaling coefficient as its own), the counts of |Z| >= t and of
    # |Z| >= t + 1 lie within 5 sd of their binomial means, and the mean and
    # variance of all the normals within 5 sd of 0 and 1
    size, reps = 1 << 16, 32
    draws = np.array([_split_normals(np.random.default_rng(np.random.SeedSequence((48, rep))),
                                     t, size, size)[0] for rep in range(reps)])
    groups = [draws[:, :1]] + [draws[:, 1 << j : 2 << j] for j in range(15)]
    for edge in (t, t + 1.0):
        q = math.erfc(edge / math.sqrt(2.0))
        for group in groups:
            count, mean = np.count_nonzero(np.abs(group) >= edge), group.size * q
            assert abs(count - mean) < 5.0 * math.sqrt(mean * (1.0 - q)), (edge, group.size)
    total = draws.size
    assert abs(draws.mean()) < 5.0 / math.sqrt(total)
    assert abs(draws.var() - 1.0) < 5.0 * math.sqrt(2.0 / total)


def test_split_draw_to_a_width_is_the_full_realizations():
    # a narrower draw is the full one's first normals, with the exceedances past
    # it at their places: each normal is a function of the seed alone
    size, t = 1 << 12, 2.5
    seed = np.random.SeedSequence((48, 1))
    full, _, _ = _split_normals(np.random.default_rng(seed), t, size, size)
    for width in (2, 64, 1 << 11):
        z, where, values = _split_normals(np.random.default_rng(seed), t, size, width)
        assert z.tobytes() == full[:width].tobytes()
        assert np.array_equal(np.sort(where), np.flatnonzero(np.abs(full[width:]) >= t) + width)
        assert values.tobytes() == full[where].tobytes()


def test_normal_tail_stays_within_40_sd():
    # rates._estimate_sup takes a sequence observation within 40 sd of theta:
    # the tail sampler's largest value, at the least U = 1 - random() = 2^-53,
    # is sqrt(t^2 + 106 log 2), and it draws one only where q > 0, so t < 38.51
    class Extreme:
        def random(self, shape):
            u = np.zeros(shape)
            u[0], u[2] = 1.0 - 2.0**-53, 0.75  # the least U; accepted, positive
            return u

    assert math.erfc(38.51 / math.sqrt(2.0)) == 0.0 < math.erfc(38.5 / math.sqrt(2.0))
    for t in (2.5, 10.0, 38.51):
        (z,) = _normal_tail(Extreme(), t, 1)
        assert z == pytest.approx(math.sqrt(t * t + 106.0 * math.log(2.0)), rel=1e-15)
        assert t <= z < 39.5


def test_threshold_draw_without_a_split_is_the_noise_stream():
    # kappa 0.5 puts t below 2.5 at every n here: no split, and the engine's
    # replicates are _noise's rows, so each loss is that of a _noise row
    truth, n_grid, R, seed = CoefficientTree.zeros(1, 6), [1024, 65536], 3, 17
    (table,) = monte_carlo_risk((truth,), EstimatorSpec("threshold_hard", kappa=0.5), n_grid,
                                R, 2.0, seed)
    for n, row in zip(n_grid, table.rows):
        lam, read = 0.5 * universal_threshold(n), noise_depth(n)
        assert _split_point(n, lam) == math.inf
        assert _ThresholdNoise.plan(n, lam, read, np.zeros(2 << 6)) is None
        noise = _noise(n, 6, [np.random.SeedSequence((seed, n, rep)) for rep in range(R)])
        losses = [threshold_estimate(CoefficientTree._of(6, y), lam, read).total_energy()
                  for y in noise]
        assert row.empirical_risk == float(np.mean(losses))


def test_threshold_draw_at_extreme_kappa():
    # kappa 1e-300: t is inf, every coefficient drawn and kept; kappa 1e300:
    # q = 0, no exceedance, and no level drawn but the scaling coefficient's
    # (and level 0's), which the estimate passes through: the loss is its noise
    truth, n_grid, R, seed = CoefficientTree.zeros(1, 6), [1024, 4096], 2, 3
    (small,) = monte_carlo_risk((truth,), EstimatorSpec("threshold_hard", kappa=1e-300),
                                n_grid, R, 2.0, seed)
    assert all(0.0 < row.empirical_risk < math.inf for row in small.rows)
    (large,) = monte_carlo_risk((truth,), EstimatorSpec("threshold_hard", kappa=1e300),
                                n_grid, R, 2.0, seed)
    for n, row in zip(n_grid, large.rows):
        lam = 1e300 * universal_threshold(n)
        t = _split_point(n, lam)
        assert math.erfc(t / math.sqrt(2.0)) == 0.0
        assert _ThresholdNoise.plan(n, lam, noise_depth(n), np.zeros(2 << 6)).width == 2
        scaling = [_split_normals(np.random.default_rng(np.random.SeedSequence((seed, n, rep))),
                                  t, 2 << noise_depth(n), 2)[0][0] * n**-0.5 for rep in range(R)]
        assert row.empirical_risk == float(np.mean([float(y) ** 2 for y in scaling])) > 0.0


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


# -- reference implementations: the law and the alias table's reading that
# DensitySampler must reproduce bit for bit, and empirical coefficients read
# point by point from each level's wavelet synthesized at the tree's
# resolution j_max + 8, summed by fsum, with a bound on the rounding of both
# computations.


def reference_masses(f_tree, filt):
    values = np.clip(synthesize(f_tree, filt, f_tree.j_max + DENSITY_GRID_PAD).samples, 0.0, None)
    return values / values.sum()


def alias_fields(table):
    """(threshold, alias) of each bucket: the table's high and low 32 bits."""
    return (table >> 32).astype(np.int64), (table & 0xFFFFFFFF).astype(np.int64)


def assert_table_holds(table, masses):
    """Each cell's units, its own bucket's threshold and the rest of every
    bucket that aliases it (a full bucket is its own alias), in exact
    integers: floor(2^(res + 32) masses), the largest cell also the remainder
    of N 2^32, within 2^-31 of masses in L1, none in a cell of zero mass,
    whose threshold is 0 and which no bucket aliases."""
    threshold, alias = alias_fields(table)
    assert table.dtype == np.uint64 and table.shape == masses.shape
    assert threshold.max() < UNIT and alias.max() < len(masses)
    units = threshold.copy()
    np.add.at(units, alias, UNIT - threshold)
    total = len(masses) * UNIT
    want = np.array([math.floor(m * total) for m in masses], dtype=np.int64)
    want[np.argmax(want)] += total - sum(want.tolist())
    assert np.array_equal(units, want)
    assert np.abs(units / total - masses).sum() <= 2.0**-31
    assert np.all(threshold[masses == 0.0] == 0) and np.all(masses[alias] > 0.0)


def reference_sample_points(sampler, words):
    """Each word read field by field: the top res bits a bucket, the next 32 a
    coin that keeps the bucket's cell below its threshold and takes its alias
    otherwise, the last 32 - res a place in the cell; the point is the cell
    plus the place, in units of 2^-32."""
    res = sampler.res
    threshold, alias = alias_fields(sampler.table)
    bucket = (words >> np.uint64(64 - res)).astype(np.int64)
    coin = ((words >> np.uint64(32 - res)) & np.uint64(0xFFFFFFFF)).astype(np.int64)
    place = (words & np.uint64((1 << (32 - res)) - 1)).astype(np.int64)
    cells = np.where(coin < threshold[bucket], bucket, alias[bucket])
    return ((cells << (32 - res)) + place) / 2.0**32


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


UNIT = 1 << 32  # a bucket's share of the law, in units of its coin


@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_density_sampler_table_holds_the_cell_masses(case):
    tree, filt = SAMPLER_CASES[case]
    masses = reference_masses(tree, filt)
    assert DensitySampler.cell_masses(tree, filt)[0].tobytes() == masses.tobytes()
    sampler = DensitySampler.from_tree(tree, filt)
    assert not sampler.table.flags.writeable
    assert_table_holds(sampler.table, masses)
    # sample() reads the seed's PCG64 words field by field
    for n, seed in ((1, 4), (5000, 17), (65536, np.random.SeedSequence(90210))):
        words = np.random.PCG64(seed).random_raw(n)
        want = reference_sample_points(sampler, words)
        assert np.array_equal(sampler.sample(n, seed).points, want)


def test_alias_table_of_hand_laws():
    # one cell; full buckets (exactly 1/N) between large cells; runs of zero
    # mass; all the mass in the last cell; uniform; random laws with zeros
    rng = np.random.default_rng(108)
    laws = [np.ones(1), np.array([0, 1, 3, 1, 0, 1, 2, 0]) / 8, np.eye(1, 64, 63)[0],
            np.full(16, 1 / 16)]
    for size in (2, 256, 4096):
        law = rng.random(size) ** 4 * (rng.random(size) < 0.7)
        laws.append(law / law.sum())
    for law in laws:
        assert_table_holds(models._alias_table(law.copy()), law)


def alias_table_by_whole_arrays(masses):
    """_alias_table as one pass of whole-array steps: an index, a start and an
    owner per small cell, and each large cell's count of the deficits it holds."""
    n_cells, unit = len(masses), 1 << 32
    weights = np.multiply(masses, float(n_cells * unit), out=masses.view(np.int64),
                          casting="unsafe")
    weights[np.argmax(weights)] += n_cells * unit - int(weights.sum())
    small = weights < unit
    large = np.flatnonzero(~small)
    starts = np.zeros(np.count_nonzero(small) + 1, np.int64)
    np.subtract(unit, weights[small], out=starts[1:])
    np.cumsum(starts, out=starts)
    ends = np.cumsum(weights.take(large) - unit)
    weights <<= 32
    halves = weights.view(np.uint32)
    threshold, alias = halves[models._HIGH::2], halves[models._LOW::2]
    owner = np.searchsorted(ends, starts[:-1], side="right")
    alias[small] = large.take(owner)
    last = np.cumsum(np.bincount(owner, minlength=len(large)))
    keep = ends - starts.take(last) + unit
    full = keep == unit
    keep[full] = 0
    threshold[large] = keep
    after = np.roll(large, -1)
    np.copyto(after, large, where=full)
    alias[large] = after
    return weights.view(np.uint64)


def test_alias_table_is_the_whole_array_build():
    # the chunked sweeps write the table of the whole-array build bit for bit: random
    # laws with zeros of 2^0..2^16 cells (past 2^12 a sweep carries across chunks), one
    # cell, one-hot, uniform and two-point laws, and dyadic laws, whose deficits start
    # where spans end
    rng = np.random.default_rng(4049)
    laws = [np.ones(1), np.eye(1, 1 << 14, 5000)[0], np.full(1 << 13, 2.0**-13),
            np.eye(1, 1 << 15, 3)[0] / 4 + np.eye(1, 1 << 15, 30000)[0] * 3 / 4,
            np.array([0, 1, 3, 1, 0, 1, 2, 0]) / 8]
    for res in range(17):
        for zeros in (0.0, 0.3, 0.97):
            law = rng.random(1 << res) ** 3 * (rng.random(1 << res) >= zeros)
            if law.sum() > 0:
                laws.append(law / law.sum())
        laws.append(rng.multinomial(1 << res, rng.dirichlet(np.ones(1 << res))) / (1 << res))
    for law in laws:
        table = models._alias_table(law.copy())
        assert table.tobytes() == alias_table_by_whole_arrays(law.copy()).tobytes(), len(law)


def test_density_sampler_build_holds_at_most_24_bytes_per_cell():
    # the density workload's truth (db2, j_max 10, 2^18 cells): beside the synthesized
    # grid and the law, the alias build holds arrays of the large cells alone
    tree = density_truth_tree(shell_tree(2, 2, 1, 10, amplitude=1.0, dither=2.0, j_min=2))
    filt = get_filter("db2")
    DensitySampler.from_tree(tree, filt)  # any cache the build fills, filled
    tracemalloc.start()
    try:
        sampler = DensitySampler.from_tree(tree, filt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(sampler.table) <= 24.0


@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_density_sampler_draws_fit_the_law(case):
    # 2e5 draws binned on 32 coarse cells at the seed fixed below: a bin of
    # probability p holds no draw if p = 0, else within 5 binomial sd of n p
    # (over the 128 bins a false failure has probability under 1e-4)
    tree, filt = SAMPLER_CASES[case]
    sampler = DensitySampler.from_tree(tree, filt)
    n = 200_000
    counts = np.bincount(sampler.cells(n, 47, 5), minlength=32)
    p = reference_masses(tree, filt).reshape(32, -1).sum(axis=1)
    assert np.all(counts[p == 0.0] == 0)
    z = (counts - n * p)[p > 0] / np.sqrt(n * p * (1 - p))[p > 0]
    assert np.max(np.abs(z)) < 5.0


@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_density_sampler_cells_are_the_sample_binned(case):
    # the engine bins each replicate's draws at its read depth J + 8 without
    # forming points; below, at and above the sampler's own grid, the stack
    # equals the empirical coefficients of sample() bit for bit
    tree, filt = SAMPLER_CASES[case]
    sampler = DensitySampler.from_tree(tree, filt)
    seeds = [np.random.SeedSequence((7, case, rep)) for rep in range(2)]
    for n in (1, 5000, 65536):
        samples = [sampler.sample(n, seed) for seed in seeds]
        for sample in samples:  # on the grid of 2^32 cells
            assert np.array_equal(sample.points, np.floor(sample.points * 2.0**32) / 2.0**32)
        for J in (max(tree.j_max - 2, 0), tree.j_max, tree.j_max + 2):
            res = J + DENSITY_GRID_PAD
            for sample, seed in zip(samples, seeds):
                cells = sampler.cells(n, seed, res)
                assert np.array_equal(cells, grid_cells(sample.points, res))
            stack = models._sampled_stack(sampler, n, seeds, filt, J)
            for row, sample in zip(stack, samples):
                want = empirical_coefficients(sample, filt, J).coeffs
                assert row.tobytes() == want.tobytes(), (n, J)
    # the least and the greatest word, and each bucket's word just below and at
    # its threshold: the point and its cells follow the fields at every resolution
    threshold, _ = alias_fields(sampler.table)
    buckets = np.arange(0, 1 << sampler.res, max(1, (1 << sampler.res) >> 6))
    coins = np.maximum(threshold[buckets], 1)[:, None] - np.array([1, 0])
    fields = (buckets[:, None] << 32 | coins).astype(np.uint64) << np.uint64(32 - sampler.res)
    words = np.append(fields.ravel(), np.array([0, 2**64 - 1], dtype=np.uint64))
    points = sampler.sample(len(words), Words(words)).points
    assert np.array_equal(points, reference_sample_points(sampler, words))
    assert points.max() < 1.0
    for res in range(1, 33):
        assert np.array_equal(sampler.cells(len(words), Words(words), res), grid_cells(points, res))


def test_density_sampler_draws_no_cell_of_zero_mass():
    # a cell of zero mass keeps no units of its bucket and is no bucket's alias,
    # so the coin takes every draw of its bucket elsewhere, the all-zero word's too
    sampler = DensitySampler.from_tree(upper_half_density(), HAAR)
    masses = reference_masses(upper_half_density(), HAAR)
    assert np.count_nonzero(masses) == len(masses) // 2
    assert_table_holds(sampler.table, masses)
    assert sampler.sample(200_000, 95).points.min() >= 0.5
    words = np.array([0, 1 << 62], dtype=np.uint64)
    points = sampler.sample(2, Words(words)).points
    assert 0.5 <= points.min()
    for res in range(1, sampler.res + 4):
        assert np.array_equal(sampler.cells(2, Words(words), res), grid_cells(points, res))


class Words(np.random.Generator):
    """A generator whose bit generator's random_raw(n) returns the given
    64-bit words, a fresh copy per call: default_rng passes a Generator
    through unchanged."""

    def __init__(self, words):
        super().__init__(np.random.PCG64(0))
        self.words = np.array(words, dtype=np.uint64)

    @property
    def bit_generator(self):
        return self

    def random_raw(self, n):
        assert n == len(self.words)
        return self.words.copy()


def test_density_cells_write_no_caller_array():
    # the words become the cells, and the cells their phases, in arrays the
    # kernel made itself: the sampler's table and a frozen sample's points are
    # read-only, so a write to them would raise here
    tree, filt = SAMPLER_CASES[1]
    sampler = DensitySampler.from_tree(tree, filt)
    sample = sampler.sample(4096, 3)
    for arr in (sample.points, sampler.table):
        assert not arr.flags.writeable
    for J in (tree.j_max - 2, tree.j_max + 2):
        res = J + DENSITY_GRID_PAD
        assert np.array_equal(models._cells(sample.points, res), sampler.cells(4096, 3, res))
        stack = models._sampled_stack(sampler, 4096, [3], filt, J)
        assert stack[0].tobytes() == empirical_coefficients(sample, filt, J).coeffs.tobytes()


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
