import math

import numpy as np
import pytest

from waverates import models, wavelet
from waverates.dyadic import CoefficientTree
from waverates.models import (
    DENSITY_GRID_PAD,
    MAX_CLIPPED_MASS,
    _GUIDE_STEPS,
    DensitySample,
    DensitySampler,
    empirical_coefficients,
    observe,
    simulate_sequence,
)
from waverates.truths import bump_tree, density_truth_tree, shell_tree, uniform_density_tree
from waverates.wavelet import DAUBECHIES_LOWPASS, WaveletFilter, get_filter, synthesize

HAAR = get_filter("haar")


def small_truth():
    return CoefficientTree.from_items(1, 2, 0.4, [((1, 0), 0.9), ((2, 3), -0.2)])


def test_simulate_sequence_deterministic():
    theta = small_truth()
    a = simulate_sequence(theta, 100, 4, seed=77)
    b = simulate_sequence(theta, 100, 4, seed=77)
    assert a.y.scaling == b.y.scaling
    for j in range(5):
        assert np.array_equal(a.y.level(j), b.y.level(j))
    c = simulate_sequence(theta, 100, 4, seed=78)
    assert not np.array_equal(a.y.level(4), c.y.level(4))


def test_simulate_sequence_replicate_streams_differ():
    theta = small_truth()
    streams = [
        simulate_sequence(theta, 100, 4, seed=np.random.SeedSequence((7, rep))).y.level(4)
        for rep in range(4)
    ]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(streams[i], streams[j])


def test_simulate_sequence_vanishing_noise():
    theta = small_truth()
    obs = simulate_sequence(theta, 10**12, 3, seed=5)
    dev = max(
        abs(obs.y.scaling - theta.scaling),
        max(np.max(np.abs(obs.y.level(j) - theta.level(j))) for j in range(4)),
    )
    assert dev < 1e-3


def test_simulate_sequence_moments():
    theta = small_truth()
    R, n = 10_000, 100
    vals = np.empty(R)
    others = np.empty(R)
    for rep in range(R):
        y = simulate_sequence(theta, n, 2, seed=np.random.SeedSequence((123, rep))).y
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
        assert np.all(obs.y.level(j) != 0.0)


def test_observe_equals_simulating_the_truth():
    # one noise draw to depth 6 observes trees of other depths and missing levels
    trees = [small_truth(), shell_tree(2, 2, 1, 6, 3.0, dither=2.0, j_min=2),
             CoefficientTree.zeros(1, 3)]
    for n, seed in ((100, 4), (4096, np.random.SeedSequence((9, 4096, 3)))):
        noise = simulate_sequence(CoefficientTree.zeros(1, 6), n, 6, seed)
        for theta in trees:
            for j_max in range(min(theta.j_max, 6) + 1):
                got = observe(theta, noise, j_max)
                want = simulate_sequence(theta, n, j_max, seed).y
                assert got.j_max == j_max and got.scaling == want.scaling
                assert got.levels.keys() == want.levels.keys()
                for j, level in want.levels.items():
                    assert np.array_equal(got.levels[j], level)
    with pytest.raises(ValueError):
        observe(small_truth(), simulate_sequence(CoefficientTree.zeros(1, 1), 100, 1, 4), 2)


def test_sample_density_uniform():
    sample = DensitySampler.from_tree(uniform_density_tree(6), HAAR).sample(10_000, seed=2)
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


def test_sample_density_deterministic():
    tree = uniform_density_tree(5)
    a = DensitySampler.from_tree(tree, HAAR).sample(64, seed=9)
    b = DensitySampler.from_tree(tree, HAAR).sample(64, seed=9)
    assert np.array_equal(a.points, b.points)


def test_density_sample_validation():
    with pytest.raises(ValueError):
        DensitySample(3, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        DensitySample(2, np.array([0.1, 1.2]))
    points = np.array([0.0, 0.5, 1.0])  # the ends of [0, 1] are inside it
    sample = DensitySample(3, points)
    assert sample.points is points and not points.flags.writeable  # frozen, not copied


def test_empirical_coefficients_single_point_exact():
    x = 0.618
    beta = empirical_coefficients(DensitySample(1, np.array([x])), HAAR, 5)
    for j in (0, 2, 5):
        psi = psi_grid(j, HAAR)
        stride = 1 << DENSITY_GRID_PAD
        cell = grid_cells(np.array([x]), j + DENSITY_GRID_PAD)[0]
        for k in (0, (1 << j) - 1):
            want = psi[(cell - k * stride) % (1 << (j + DENSITY_GRID_PAD))]
            assert beta.get(j, k) == want


def test_empirical_coefficients_uniform_unbiased_at_zero():
    runs = 50
    acc = []
    sampler = DensitySampler.from_tree(uniform_density_tree(6), HAAR)
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


# -- reference implementations: the searchsorted sampler and the per-level
# bincount loop over full wavelet grids that DensitySampler, the scaling
# coefficient and the per-point levels of empirical_coefficients must
# reproduce bit for bit, and the exact means that bound the levels it sums
# over cell counts.


def reference_cdf(f_tree, filt):
    res = f_tree.j_max + DENSITY_GRID_PAD
    values = np.clip(synthesize(f_tree, filt, res).samples, 0.0, None)
    masses = values / values.sum()
    cum = np.cumsum(masses)
    cum[-1] = 1.0
    return res, masses, cum


def reference_sample_points(f_tree, filt, n, seed):
    res, masses, cum = reference_cdf(f_tree, filt)
    u = np.random.default_rng(np.random.SeedSequence(seed)).random(n)
    cells = np.searchsorted(cum, u, side="left")
    left = np.where(cells > 0, cum[cells - 1], 0.0)
    frac = (u - left) / masses[cells]
    return (cells + np.clip(frac, 0.0, 1.0)) / (1 << res)


def grid_cells(points, res):
    return np.minimum((points * (1 << res)).astype(np.int64), (1 << res) - 1)


def psi_grid(j, filt):
    e = np.zeros(1 << j)
    e[0] = 1.0
    single = CoefficientTree(d=1, j_max=j, scaling=0.0, levels={j: e})
    return synthesize(single, filt, j + DENSITY_GRID_PAD).samples


def reference_coefficients(points, filt, j_max):
    n = len(points)
    phi = synthesize(CoefficientTree(d=1, j_max=0, scaling=1.0), filt, DENSITY_GRID_PAD).samples
    scaling = float(np.sum(phi[grid_cells(points, DENSITY_GRID_PAD)]) * (1.0 / n))
    stride = 1 << DENSITY_GRID_PAD
    levels = {}
    for j in range(j_max + 1):
        psi = psi_grid(j, filt)
        n_pos = 1 << j
        cells = grid_cells(points, j + DENSITY_GRID_PAD)
        block = cells >> DENSITY_GRID_PAD
        phase = cells & (stride - 1)
        nz = np.flatnonzero(np.abs(psi) > 0.0)
        support_blocks = min(int(nz[-1] >> DENSITY_GRID_PAD) + 1, n_pos) if nz.size else 0
        beta = np.zeros(n_pos)
        for m in range(support_blocks):
            vals = psi[phase + m * stride]
            k = (block - m) % n_pos
            beta += np.bincount(k, weights=vals, minlength=n_pos)
        levels[j] = beta * (1.0 / n)
    return scaling, levels


def count_path_reference(points, filt, j_max):
    """levels[j] = (means, bounds) for each level j <= j_max with 2^(j+8) <= n
    cells, the levels empirical_coefficients sums over cell counts.

    A mean is fsum's correctly rounded sum over the points divided by n; its
    bound is the recursive summation bound n eps sum_i |psi_{j,k}(X_i)| / n.
    """
    n = len(points)
    eps = np.finfo(np.float64).eps

    def mean_and_bound(values):
        return math.fsum(values) / n, n * eps * math.fsum(np.abs(values)) / n

    levels = {}
    for j in range(j_max + 1):
        if 1 << (j + DENSITY_GRID_PAD) > n:
            break
        psi = psi_grid(j, filt)
        cells = grid_cells(points, j + DENSITY_GRID_PAD)
        pairs = [mean_and_bound(psi[(cells - (k << DENSITY_GRID_PAD)) % len(psi)])
                 for k in range(1 << j)]
        levels[j] = tuple(np.array(column) for column in zip(*pairs))
    return levels


def assert_matches_references(beta, per_point, counted):
    """The scaling coefficient and the levels of beta with more cells than
    points equal the per-point reference bit for bit; the other levels lie
    within their recursive summation bounds."""
    scaling, levels = per_point
    assert beta.scaling == scaling
    for j in range(beta.j_max + 1):
        if j in counted:
            means, bounds = counted[j]
            assert np.all(np.abs(beta.level(j) - means) <= bounds), (beta.j_max, j)
        else:
            assert np.array_equal(beta.level(j), levels[j]), (beta.j_max, j)


def demo_density_truth():
    return density_truth_tree(shell_tree(2, 2, 1, 10, amplitude=1.0, dither=2.0, j_min=2))


def upper_half_density():
    # density 2 * 1_{[1/2, 1)}: the CDF is flat over the whole lower half
    return CoefficientTree.from_items(1, 3, 1.0, [((0, 0), -1.0)])


SAMPLER_CASES = [
    (uniform_density_tree(6), HAAR),
    (demo_density_truth(), get_filter("db2")),
    (density_truth_tree(bump_tree(1, 5, level=2, position=1, amplitude=0.3)), get_filter("db4")),
    (upper_half_density(), HAAR),
]


@pytest.mark.parametrize("case", range(len(SAMPLER_CASES)))
def test_density_sampler_matches_searchsorted_reference(case):
    tree, filt = SAMPLER_CASES[case]
    sampler = DensitySampler.from_tree(tree, filt)
    for arr in (sampler.masses, sampler.cum, sampler.guide):
        assert not arr.flags.writeable
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
        want = np.searchsorted(cum, u, side="left")
        assert np.array_equal(sampler.locate(u), want)
    # the flat lower half of the CDF puts thousands of cells in the first
    # guide bucket: draws there exceed the forward steps and take the fallback
    start = sampler.guide[(u * buckets).astype(np.intp)]
    assert np.max(want - start) > _GUIDE_STEPS


def test_density_sampler_refuses_clipped_mass():
    # 1 + c psi_{0,0} (Haar) dips to 1 - c on [0, 1/2): negative mass (c - 1) / 2
    lobe = lambda c: CoefficientTree.from_items(1, 2, 1.0, [((0, 0), c)])
    with pytest.raises(ValueError, match="negative mass"):
        DensitySampler.from_tree(lobe(1.5), HAAR)
    small = DensitySampler.from_tree(lobe(1.0 + 1e-5), HAAR)
    assert 0.0 < small.clipped_mass < MAX_CLIPPED_MASS
    assert abs(small.clipped_mass - 5e-6) < 1e-12
    assert DensitySampler.from_tree(demo_density_truth(), get_filter("db2")).clipped_mass == 0.0


@pytest.mark.parametrize("name", ["db1", "db2", "db4", "db10"])
def test_empirical_coefficients_match_per_level_reference(name):
    filt = get_filter(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    points = np.concatenate([
        rng.random(3000),
        [0.0, 1.0, np.nextafter(1.0, 0.0), 0.5, 0.25, 3 / 1024, 1 - 2.0**-20],
    ])
    sample = DensitySample(len(points), points)
    per_point = reference_coefficients(points, filt, 12)
    counted = count_path_reference(points, filt, 12)
    assert sorted(counted) == [0, 1, 2, 3]  # 2^11 <= 3007 < 2^12 cells
    for j_max in range(13):
        beta = empirical_coefficients(sample, filt, j_max)
        assert_matches_references(beta, per_point, counted)


def test_empirical_coefficients_support_spanning_synthesis_blocks(monkeypatch):
    # synthesis blocks of 2^9 cells: the db10 support, 19 * 2^8 cells, spans ten
    monkeypatch.setattr(wavelet, "_BLOCK_SAMPLES", 1 << 9)
    monkeypatch.setattr(models, "_PSI_CACHE", {})
    filt = get_filter("db10")
    points = np.random.default_rng(3).random(1000)
    beta = empirical_coefficients(DensitySample(len(points), points), filt, 8)
    assert_matches_references(beta, reference_coefficients(points, filt, 8),
                              count_path_reference(points, filt, 8))


def test_empirical_coefficients_cache_keyed_by_taps():
    sample = DensitySampler.from_tree(uniform_density_tree(4), HAAR).sample(300, seed=8)
    db2 = empirical_coefficients(sample, get_filter("db2"), 4)
    impostor = WaveletFilter(name="db2", taps=np.array(DAUBECHIES_LOWPASS[3]), vanishing_moments=3)
    got = empirical_coefficients(sample, impostor, 4)
    db3 = get_filter("db3")
    counted = count_path_reference(sample.points, db3, 4)
    assert_matches_references(got, reference_coefficients(sample.points, db3, 4), counted)
    _, bounds = counted[0]  # level 0 is summed over cell counts
    assert np.all(np.abs(got.level(0) - db2.level(0)) > 1e6 * bounds)
    assert not np.array_equal(got.level(4), db2.level(4))


@pytest.mark.parametrize("j", [0, 2])
def test_empirical_coefficients_count_path_from_one_point_per_cell(j):
    # n = 2^(j+8) copies of one point: level j has one cell per point, so it
    # and every coarser level are summed over cell counts, where n psi / n is
    # exactly the grid value psi; the per-point sum of n copies rounds.
    filt = get_filter("db2")
    n, x = 1 << (j + DENSITY_GRID_PAD), 0.618
    points = np.full(n, x)
    beta = empirical_coefficients(DensitySample(n, points), filt, j + 2)
    scaling, levels = reference_coefficients(points, filt, j + 2)
    assert beta.scaling == scaling
    for level in range(j + 1):
        psi = psi_grid(level, filt)
        cell = grid_cells(points[:1], level + DENSITY_GRID_PAD)[0]
        exact = psi[(cell - (np.arange(1 << level) << DENSITY_GRID_PAD)) % len(psi)]
        assert np.array_equal(beta.level(level), exact), level
    assert not np.array_equal(levels[j], exact)  # so the per-point path would fail
    for level in (j + 1, j + 2):
        assert np.array_equal(beta.level(level), levels[level]), level
    # one point fewer: level j has more cells than points and is summed per point
    fewer = points[:-1]
    beta = empirical_coefficients(DensitySample(n - 1, fewer), filt, j + 2)
    assert_matches_references(beta, reference_coefficients(fewer, filt, j + 2),
                              count_path_reference(fewer, filt, j + 2))
