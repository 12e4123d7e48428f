import math

import numpy as np
import pytest

from waverates.dyadic import CoefficientTree
from waverates.estimators import (
    _threshold_stack,
    linear_estimate,
    linear_weights,
    noise_depth,
    threshold_estimate,
    universal_threshold,
)
from waverates.models import simulate_sequence
from waverates.rates import ESTIMATOR_KINDS, EstimatorSpec
from waverates.spaces import SmoothnessParams
from waverates.truths import shell_tree


def observation(seed=0, n=1024, j_max=6, theta=None):
    theta = theta if theta is not None else shell_tree(2, 2, 1, j_max, 4.0)
    return simulate_sequence(theta, n, j_max, seed=seed)


def test_weight_profile_validation():
    for bad in (-1.0, math.inf, math.nan):
        for order in (math.inf, 2.0):
            with pytest.raises(ValueError, match="m_n must be a finite number >= 0"):
                linear_weights(bad, order)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="order must be positive"):
            linear_weights(4.0, order=bad)
    assert linear_weights(4.0) == {0: 1.0, 1: 1.0}  # projection: keep 2^j < 4
    assert linear_weights(1.0) == linear_weights(0.0) == linear_weights(0.0, 2.0) == {}


def test_pinsker_weights_hand_value():
    # 1 - (2^j / m_n)^order on the levels with 2^j < m_n: the frequency of level j is 2^j
    assert linear_weights(4.0, order=2.0) == {0: 0.9375, 1: 0.75}  # 2^2 = m_n weighs 0
    assert linear_weights(10.0, order=1.0) == {0: 1.0 - 1 / 10, 1: 1.0 - 2 / 10,
                                               2: 1.0 - 4 / 10, 3: 1.0 - 8 / 10}
    # projection is the order -> inf limit, on the same levels
    assert linear_weights(10.0, order=200.0) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0 - 0.8**200}
    assert linear_weights(10.0, order=math.inf) == dict.fromkeys(range(4), 1.0)


def test_linear_estimate_identity_and_zero():
    y = observation()
    est = linear_estimate(y, dict.fromkeys(range(7), 1.0))
    for j in range(7):
        assert np.array_equal(est.level(j), y.level(j))
    half = linear_estimate(y, {2: 0.5, 5: 0.0})  # ends at level 2, the last weighed
    assert half.coeffs.size == 8 and np.array_equal(half.level(2), 0.5 * y.level(2))
    assert half.coeffs[:4].tolist() == [y.scaling, 0.0, 0.0, 0.0]
    killed = linear_estimate(y, linear_weights(0.0))
    assert killed.wavelet_energy() == 0.0
    assert killed.scaling == y.scaling  # scaling passes through


def test_estimates_end_at_the_deepest_level_their_rule_keeps():
    y = CoefficientTree(1, 7, -0.4, {0: [0.5], 2: np.arange(4.0) - 1.5, 3: np.zeros(8),
                                     6: np.ones(64)})
    weights = {0: 0.0, 1: 0.5, 2: 0.25, 3: 2.0, 4: 1.0, 6: 1e-300, 7: 1.0}
    est = linear_estimate(y, weights)
    # the array ends at the deepest level y holds with a nonzero weight; each
    # level is its weight times y's, and an unweighed level is zero
    assert est.coeffs.size == 128 and list(est.levels) == list(range(7))
    assert est.scaling == y.scaling and est.j_max == y.j_max
    for j in range(7):
        assert est.levels[j].tobytes() == (weights.get(j, 0.0) * y.level(j)).tobytes()
    assert linear_estimate(y, {6: 0.0}).coeffs.size == 1  # no level left
    assert linear_estimate(y, {1: 1.0, 7: 1.0}).coeffs.size == 4  # y holds no level 7
    # thresholding ends the array at the deepest level that keeps a coefficient
    lam = 2.0 * universal_threshold(1024)
    y = CoefficientTree(1, 9, 0.1, {1: [2 * lam, 0.0], 3: np.full(8, lam / 2), 4: np.zeros(16)})
    est = threshold_estimate(y, lam, noise_depth(1024))
    assert est.coeffs.tolist() == [0.1, 0.0, 2 * lam, 0.0] and est.j_max == 9
    assert threshold_estimate(y, 4 * lam, noise_depth(1024)).coeffs.tolist() == [0.1]


def _trimmed_reference(y, lam, depth, mode):
    """_threshold_stack formed over every level <= depth, then cut after the
    deepest level that any row keeps a coefficient of."""
    a = y[..., : 2 << depth]
    if mode == "hard":
        est = np.where(np.abs(a) >= lam, a, 0.0)
    else:
        est = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
    est[..., 0] = a[..., 0]
    kept = [j for j in range(a.shape[-1].bit_length() - 1) if est[..., 1 << j : 2 << j].any()]
    return est[..., : 2 << kept[-1] if kept else 1]


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_threshold_stack_forms_only_the_kept_width(mode):
    lam, depth = 0.5, 6
    y = np.random.default_rng(9).uniform(-lam / 2, lam / 2, (4, 2 << 8))  # nothing kept
    y[:, 0] = [0.3, -0.0, 7.0, 0.0]  # the scaling coefficients pass through
    y[0, 3] = 2.0  # row 0 keeps level 1
    y[1, 40] = -1.0  # row 1 keeps level 5
    y[2, 1 << 6] = -lam  # |y| = lam on level 6: kept by hard, dropped by soft
    y[3, 2 << 6] = 9.0  # level 7 lies past the depth
    for rows, width in ((y, 128 if mode == "hard" else 64), (y[:1], 4), (y[3:], 1),
                        (y[0], 4), (y[3], 1)):  # y[3:] and y[3] keep no level
        got = _threshold_stack(rows, lam, depth, mode)
        want = _trimmed_reference(rows, lam, depth, mode)
        assert got.shape == want.shape == rows.shape[:-1] + (width,)
        assert got.tobytes() == want.tobytes()
    rng = np.random.default_rng(10)
    for _ in range(300):  # random stacks, some entries at exactly +-lam
        rows, levels = int(rng.integers(1, 5)), int(rng.integers(0, 12))
        y = rng.normal(0.0, rng.choice([0.1, 1.0, 3.0]), (rows, 2 << levels))
        lam = float(rng.uniform(0.5, 3.0))
        y.reshape(-1)[rng.integers(0, y.size, 3)] = lam * rng.choice([-1.0, 1.0], 3)
        depth = int(rng.integers(0, levels + 2))
        got = _threshold_stack(y, lam, depth, mode)
        want = _trimmed_reference(y, lam, depth, mode)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_universal_threshold_and_depth():
    n = 2**10
    assert abs(universal_threshold(n) - math.sqrt(math.log(n) / n)) < 1e-15
    assert noise_depth(n) == 8  # log(1024)/1024 in [2^-8, 2^-7)
    assert noise_depth(2**16) == 13
    # monotone in n
    depths = [noise_depth(n) for n in range(3, 5000, 11)]
    assert all(b >= a for a, b in zip(depths, depths[1:]))
    with pytest.raises(ValueError):
        universal_threshold(1)


def test_threshold_soft_hand_values():
    y = CoefficientTree.from_items(1, 2, 0.0, [((1, 0), 0.5), ((1, 1), -0.5), ((2, 2), 0.1)])
    est = threshold_estimate(y, 0.2, noise_depth(100), mode="soft")
    assert abs(est.get(1, 0) - 0.3) < 1e-12
    assert abs(est.get(1, 1) + 0.3) < 1e-12
    assert est.get(2, 2) == 0.0


def test_threshold_hard_boundary_kept():
    y = CoefficientTree.from_items(1, 2, 0.7, [((1, 0), 0.2), ((1, 1), 0.19)])
    est = threshold_estimate(y, 0.2, noise_depth(100), mode="hard")
    assert est.get(1, 0) == 0.2  # |y| = kappa t_n is kept
    assert est.get(1, 1) == 0.0
    assert est.scaling == 0.7


def test_threshold_level_cutoff():
    y = observation(n=2**10, j_max=9)
    est = threshold_estimate(y, 1e-300, 8)  # keep everything up to level 8
    for j in range(9):
        assert np.array_equal(est.level(j), y.level(j))
    assert np.all(est.level(9) == 0.0)


def test_threshold_zero_kappa_is_projection():
    # kappa t_n -> 0 keeps every observed coefficient up to j(n)
    y = observation(n=64, j_max=8)
    jn = noise_depth(64)
    est = threshold_estimate(y, 1e-12 * universal_threshold(64), jn, mode="hard")
    for j in range(y.j_max + 1):
        if j <= jn:
            assert np.array_equal(est.level(j), y.level(j))
        else:
            assert np.all(est.level(j) == 0.0)


def test_shrinkage_property_and_soft_lipschitz():
    y = observation(seed=3)
    for mode in ("hard", "soft"):
        est = threshold_estimate(y, 2.0 * universal_threshold(1024), noise_depth(1024),
                                 mode=mode)
        for j in range(y.j_max + 1):
            assert np.all(np.abs(est.level(j)) <= np.abs(y.level(j)) + 1e-15)
    # soft thresholding is 1-Lipschitz in the observation
    lam = 0.3
    ys = np.linspace(-1, 1, 2001)
    soft = np.sign(ys) * np.maximum(np.abs(ys) - lam, 0.0)
    assert np.max(np.abs(np.diff(soft))) <= np.max(np.diff(ys)) + 1e-12


def test_threshold_config_validation():
    y = observation(n=16, j_max=3)
    for lam in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            threshold_estimate(y, lam, 3)
    with pytest.raises(ValueError, match="mode must be 'hard' or 'soft'"):
        threshold_estimate(y, 0.1, 3, mode="medium")


def test_density_linear_projection_truncation():
    # projection under the density model keeps empirical coefficients: weights 1 or 0
    beta = shell_tree(2, 2, 1, 6, 1.0)
    full = linear_estimate(beta, linear_weights(2.0**7))
    for j in range(7):
        assert np.array_equal(full.level(j), beta.level(j))
    cut = linear_estimate(beta, linear_weights(8.0))  # keeps 2^j < 8
    assert sorted(cut.levels) == [0, 1, 2] and cut.j_max == 6
    only_scaling = linear_estimate(beta, linear_weights(1.0))
    assert only_scaling.wavelet_energy() == 0.0 and only_scaling.scaling == beta.scaling


def test_density_linear_truncation_reduces_risk_on_uniform():
    # uniform truth: every kept level only adds noise, so truncation helps
    from waverates.models import DensitySampler, empirical_coefficients
    from waverates.wavelet import get_filter

    filt = get_filter("haar")
    truth = CoefficientTree(1, 6, 1.0)
    n, runs = 1000, 50
    risk_full = risk_cut = 0.0
    sampler = DensitySampler.from_tree(truth, filt)
    for rep in range(runs):
        s = sampler.sample(n, seed=np.random.SeedSequence((17, rep)))
        beta = empirical_coefficients(s, filt, 6)
        risk_full += (beta - truth).total_energy()
        risk_cut += (linear_estimate(beta, linear_weights(8.0)) - truth).total_energy()
    assert risk_cut < risk_full


KIND = "density_threshold"


def test_density_threshold_estimate():
    # the density_threshold kind hard-thresholds at t_n (kappa 1) on levels j <= j(n)
    t = universal_threshold(2**10)
    read, estimate, _ = ESTIMATOR_KINDS[KIND].rule(EstimatorSpec(KIND), 2**10)
    assert read == noise_depth(2**10) == 8
    beta = CoefficientTree.from_items(
        1, 9, 1.0, [((1, 0), 2 * t), ((2, 1), 0.5 * t), ((9, 0), 5 * t)]
    )
    est = CoefficientTree._of(beta.j_max, estimate(beta.coeffs))  # the rule maps heap arrays
    assert est.get(1, 0) == 2 * t  # survivor kept unchanged
    assert est.get(2, 1) == 0.0  # below threshold
    assert est.get(9, 0) == 0.0  # above j(n) = 8
    assert est.scaling == 1.0
    # a coefficient exactly at the threshold is kept, as by the hard rule
    beta2 = CoefficientTree.from_items(1, 3, 0.0, [((1, 0), t)])
    assert estimate(beta2.coeffs)[2] == t  # c_{1,0}


def _kept(y, est):
    """Per level, the mask of the observations a keep-or-kill estimate keeps;
    every estimate coefficient must be its observation or 0."""
    kept = {}
    for j in range(y.j_max + 1):
        obs, out = y.level(j), est.level(j)
        assert np.all((out == obs) | (out == 0.0))
        kept[j] = (out == obs) & (obs != 0.0)
    return kept


def _is_limited(kept, lam):
    """Limited rule (Kerkyacharian & Picard 2000): it keeps only levels with 2^-j > lam."""
    return all(2.0**-j > lam for j, mask in kept.items() if mask.any())


def _is_elitist(y, kept, lam):
    """Elitist rule: it keeps only observations with |y| > lam."""
    return all(np.all(np.abs(y.level(j)[mask]) > lam) for j, mask in kept.items())


def test_classify_projection_is_limited():
    params = SmoothnessParams(s=2, r=2, p=2, d=1)
    y = observation(n=1024)
    m_n = EstimatorSpec("projection", smoothness=params).cutoff(1024)
    kept = _kept(y, linear_estimate(y, linear_weights(m_n)))
    assert _is_limited(kept, 2.0 ** (-math.ceil(math.log2(m_n))))
    # not elitist once the magnitude bound exceeds every kept observation
    lam_big = max(np.max(np.abs(y.level(j))) for j in range(2)) + 1.0
    assert not _is_elitist(y, kept, lam_big)


@pytest.mark.parametrize("seed", range(100))
def test_classify_hard_threshold_is_elitist(seed):
    y = observation(seed=seed, n=256, j_max=5)
    lam = 2.0 * universal_threshold(256)
    kept = _kept(y, threshold_estimate(y, lam, noise_depth(256), mode="hard"))
    assert _is_elitist(y, kept, 2.0 * universal_threshold(256) * 0.999)


def test_classify_adversarial_trace():
    # an estimate that keeps one tiny coefficient is not elitist
    y = observation(n=256, j_max=3)
    small = int(np.argmin(np.abs(y.level(3))))
    est = CoefficientTree.from_items(1, 3, y.scaling, [((3, small), y.level(3)[small])])
    lam = abs(y.level(3)[small]) + 0.1
    assert not _is_elitist(y, _kept(y, est), lam)


def _reference_threshold(tree, j_cut, rule):
    """Thresholding written out coefficient by coefficient, level by level up to j_cut."""
    return {j: np.array([rule(v) for v in arr]) for j, arr in tree.levels.items() if j <= j_cut}


@pytest.mark.parametrize("mode", ["hard", "soft", "density"])
def test_threshold_rules_match_reference_loops(mode):
    # values exactly at the threshold, their float neighbours, and levels above j(n)
    n = 1024
    j_cut = noise_depth(n)
    lam = universal_threshold(n) * (1.0 if mode == "density" else 2.0)
    rng = np.random.default_rng(4)
    levels = {j: rng.normal(0.0, lam, 1 << j) for j in range(j_cut + 3)}
    edges = [lam, -lam, np.nextafter(lam, 0.0), np.nextafter(-lam, 0.0),
             np.nextafter(lam, 1.0), 0.0]
    for j in (0, 3, j_cut, j_cut + 1):
        levels[j][: len(edges[: 1 << j])] = edges[: 1 << j]
    levels[2] = np.array([lam * 0.5, -lam * 0.25, 0.0, np.nextafter(lam, 0.0)])  # all dropped
    tree = CoefficientTree(d=1, j_max=j_cut + 2, scaling=0.3, levels=levels)
    if mode == "density":  # the density_threshold kind: hard at kappa = 1
        _, estimate, _ = ESTIMATOR_KINDS[KIND].rule(EstimatorSpec(KIND), n)
        est = CoefficientTree._of(tree.j_max, estimate(tree.coeffs))
    else:
        est = threshold_estimate(tree, lam, j_cut, mode=mode)
    if mode == "soft":
        rule = lambda v: math.copysign(max(abs(v) - lam, 0.0), v) if v else 0.0
    else:
        rule = lambda v: v if abs(v) >= lam else 0.0
        assert est.get(3, 0) == lam and est.get(3, 1) == -lam  # |y| = kappa t_n is kept
    want = _reference_threshold(tree, j_cut, rule)
    kept = [j for j, arr in want.items() if arr.any()]
    assert est.scaling == 0.3 and est.j_max == tree.j_max
    assert 2 not in kept and max(kept) <= j_cut
    # the array ends at the deepest level that keeps a coefficient
    assert est.coeffs.size == 2 << max(kept)
    for j, level in est.levels.items():
        assert level.tobytes() == want[j].tobytes()
