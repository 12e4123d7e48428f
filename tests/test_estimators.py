import math

import numpy as np
import pytest

from waverates.dyadic import CoefficientTree
from waverates.estimators import (
    ShrinkageClass,
    ShrinkageTrace,
    choose_mn,
    classify_rule,
    density_threshold_estimate,
    linear_estimate,
    noise_depth,
    pinsker_weights,
    projection_weights,
    shrinkage_trace,
    threshold_estimate,
    universal_threshold,
)
from waverates.models import simulate_sequence
from waverates.spaces import SmoothnessParams
from waverates.truths import shell_tree


def observation(seed=0, n=1024, j_max=6, theta=None):
    theta = theta if theta is not None else shell_tree(2, 2, 1, j_max, 4.0)
    return simulate_sequence(theta, n, j_max, seed=seed)


def test_weight_profile_validation():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="m_n must be a finite number >= 0"):
            projection_weights(bad)
        with pytest.raises(ValueError, match="m_n must be a finite number >= 0"):
            pinsker_weights(bad)
    with pytest.raises(ValueError, match="pinsker_order must be positive"):
        pinsker_weights(4.0, order=0.0)
    assert projection_weights(4.0) == {0: 1.0, 1: 1.0}  # keep 2^j < 4
    assert projection_weights(1.0) == projection_weights(0.0) == pinsker_weights(0.0) == {}


def test_pinsker_weights_hand_value():
    w = pinsker_weights(4.0, order=2.0)
    assert w == {0: 1.0, 1: 0.9375, 2: 0.75, 3: 0.4375}  # level 4 and above weigh 0
    assert pinsker_weights(2.5, order=1.0) == {0: 1.0, 1: 0.6, 2: 1.0 - 2 / 2.5}


def test_linear_estimate_identity_and_zero():
    obs = observation()
    est = linear_estimate(obs.y, dict.fromkeys(range(7), 1.0))
    for j in range(7):
        assert np.array_equal(est.level(j), obs.y.level(j))
    half = linear_estimate(obs.y, {2: 0.5, 5: 0.0})
    assert sorted(half.levels) == [2] and np.array_equal(half.level(2), 0.5 * obs.y.level(2))
    killed = linear_estimate(obs.y, projection_weights(0.0))
    assert killed.wavelet_energy() == 0.0
    assert killed.scaling == obs.y.scaling  # scaling passes through


def test_choose_mn_branches():
    dense = SmoothnessParams(s=2, r=2, p=2, d=1)
    assert abs(choose_mn(dense, 2**10) - 4.0) < 1e-12  # n^{1/5}
    sparse = SmoothnessParams(s=1.2, r=1, p=4, d=1)
    assert abs(choose_mn(sparse, 2**19) - 2.0**10) < 1e-9  # n^{1/1.9}
    boundary = SmoothnessParams(s=2, r=2, p=2, d=1)  # r = p: dense branch
    assert choose_mn(boundary, 32) == 32.0 ** (1.0 / 5.0)


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
    est = threshold_estimate(y, 100, kappa=0.2 / universal_threshold(100), mode="soft")
    assert abs(est.get(1, 0) - 0.3) < 1e-12
    assert abs(est.get(1, 1) + 0.3) < 1e-12
    assert est.get(2, 2) == 0.0


def test_threshold_hard_boundary_kept():
    y = CoefficientTree.from_items(1, 2, 0.7, [((1, 0), 0.2), ((1, 1), 0.19)])
    est = threshold_estimate(y, 100, kappa=0.2 / universal_threshold(100), mode="hard")
    assert est.get(1, 0) == 0.2  # |y| = kappa t_n is kept
    assert est.get(1, 1) == 0.0
    assert est.scaling == 0.7


def test_threshold_level_cutoff():
    obs = observation(n=2**10, j_max=9)
    est = threshold_estimate(obs.y, 2**10, kappa=1e-9)  # keep everything below j(n)
    assert noise_depth(2**10) == 8
    for j in range(9):
        assert np.array_equal(est.level(j), obs.y.level(j))
    assert np.all(est.level(9) == 0.0)


def test_threshold_zero_kappa_is_projection():
    # kappa t_n -> 0 keeps every observed coefficient up to j(n)
    obs = observation(n=64, j_max=8)
    est = threshold_estimate(obs.y, 64, kappa=1e-12, mode="hard")
    jn = noise_depth(64)
    for j in range(obs.y.j_max + 1):
        if j <= jn:
            assert np.array_equal(est.level(j), obs.y.level(j))
        else:
            assert np.all(est.level(j) == 0.0)


def test_shrinkage_property_and_soft_lipschitz():
    obs = observation(seed=3)
    for mode in ("hard", "soft"):
        est = threshold_estimate(obs.y, obs.n, kappa=2.0, mode=mode)
        for j in range(obs.y.j_max + 1):
            assert np.all(np.abs(est.level(j)) <= np.abs(obs.y.level(j)) + 1e-15)
    # soft thresholding is 1-Lipschitz in the observation
    lam = 0.3
    ys = np.linspace(-1, 1, 2001)
    soft = np.sign(ys) * np.maximum(np.abs(ys) - lam, 0.0)
    assert np.max(np.abs(np.diff(soft))) <= np.max(np.diff(ys)) + 1e-12


def test_threshold_config_validation():
    y = observation(n=16, j_max=3).y
    with pytest.raises(ValueError, match="n must be >= 2"):
        threshold_estimate(y, 1)
    for kappa in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            threshold_estimate(y, 10, kappa=kappa)
    with pytest.raises(ValueError, match="mode must be 'hard' or 'soft'"):
        threshold_estimate(y, 10, mode="medium")


def test_density_linear_projection_truncation():
    # the density linear kind projects the empirical coefficients: weights 1 or 0
    beta = shell_tree(2, 2, 1, 6, 1.0)
    full = linear_estimate(beta, projection_weights(2.0**7))
    for j in range(7):
        assert np.array_equal(full.level(j), beta.level(j))
    cut = linear_estimate(beta, projection_weights(8.0))  # keeps 2^j < 8
    assert sorted(cut.levels) == [0, 1, 2] and cut.j_max == 6
    only_scaling = linear_estimate(beta, projection_weights(1.0))
    assert only_scaling.wavelet_energy() == 0.0 and only_scaling.scaling == beta.scaling


def test_density_linear_truncation_reduces_risk_on_uniform():
    # uniform truth: every kept level only adds noise, so truncation helps
    from waverates.models import DensitySampler, empirical_coefficients
    from waverates.truths import uniform_density_tree
    from waverates.wavelet import get_filter

    filt = get_filter("haar")
    truth = uniform_density_tree(6)
    n, runs = 1000, 50
    risk_full = risk_cut = 0.0
    sampler = DensitySampler.from_tree(truth, filt)
    for rep in range(runs):
        s = sampler.sample(n, seed=np.random.SeedSequence((17, rep)))
        beta = empirical_coefficients(s, filt, 6)
        risk_full += (beta - truth).total_energy()
        risk_cut += (linear_estimate(beta, projection_weights(8.0)) - truth).total_energy()
    assert risk_cut < risk_full


def test_density_threshold_estimate():
    t = universal_threshold(2**10)
    beta = CoefficientTree.from_items(
        1, 9, 1.0, [((1, 0), 2 * t), ((2, 1), 0.5 * t), ((9, 0), 5 * t)]
    )
    est = density_threshold_estimate(beta, 2**10)
    assert est.get(1, 0) == 2 * t  # survivor kept unchanged
    assert est.get(2, 1) == 0.0  # below threshold
    assert est.get(9, 0) == 0.0  # above j(n) = 8
    assert est.scaling == 1.0
    # strictly-at-threshold coefficient is dropped (strict inequality)
    beta2 = CoefficientTree.from_items(1, 3, 0.0, [((1, 0), t)])
    assert density_threshold_estimate(beta2, 2**10).wavelet_energy() == 0.0


def test_classify_projection_is_limited():
    params = SmoothnessParams(s=2, r=2, p=2, d=1)
    obs = observation(n=1024)
    m_n = choose_mn(params, obs.n)
    est = linear_estimate(obs.y, projection_weights(m_n))
    trace = shrinkage_trace(obs, est)
    lam = 2.0 ** (-math.ceil(math.log2(m_n)))
    assert classify_rule(trace, ShrinkageClass("limited", lam, 0.5))
    # not elitist once the magnitude bound exceeds every kept observation
    lam_big = max(np.max(np.abs(obs.y.level(j))) for j in range(2)) + 1.0
    assert not classify_rule(trace, ShrinkageClass("elitist", lam_big, 0.5))


@pytest.mark.parametrize("seed", range(100))
def test_classify_hard_threshold_is_elitist(seed):
    obs = observation(seed=seed, n=256, j_max=5)
    est = threshold_estimate(obs.y, 256, kappa=2.0, mode="hard")
    trace = shrinkage_trace(obs, est)
    assert classify_rule(trace, ShrinkageClass("elitist", 2.0 * universal_threshold(256) * 0.999,
                                               0.5))


def test_classify_adversarial_trace():
    obs = observation(n=256, j_max=3)
    gammas = {j: np.zeros(1 << j) for j in range(4)}
    small = int(np.argmin(np.abs(obs.y.level(3))))
    gammas[3][small] = 1.0  # keeps one tiny coefficient
    trace = ShrinkageTrace(gammas=gammas, observation=obs)
    lam = abs(obs.y.level(3)[small]) + 0.1
    assert not classify_rule(trace, ShrinkageClass("elitist", lam, 0.5))


def test_shrinkage_trace_rejects_expansion():
    obs = observation(n=256, j_max=3)
    inflated = CoefficientTree(
        1, 3, obs.y.scaling, {j: 2.0 * obs.y.level(j) for j in range(4)}
    )
    with pytest.raises(ValueError):
        shrinkage_trace(obs, inflated)


def test_shrinkage_class_validation():
    with pytest.raises(ValueError):
        ShrinkageClass("other", 0.1)
    with pytest.raises(ValueError):
        ShrinkageClass("limited", 0.1, threshold_a=1.0)


def _reference_threshold(tree, j_cut, rule):
    """Thresholding written out coefficient by coefficient."""
    levels = {}
    for j, arr in tree.levels.items():
        if j <= j_cut:
            est = np.array([rule(v) for v in arr])
            if est.any():
                levels[j] = est
    return levels


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
    if mode == "density":
        est = density_threshold_estimate(tree, n)
        want = _reference_threshold(tree, j_cut, lambda v: v if abs(v) > lam else 0.0)
        assert est.get(3, 1) == 0.0 and est.get(3, 0) == 0.0  # |beta| = t_n is dropped
    else:
        est = threshold_estimate(tree, n, kappa=2.0, mode=mode)
        if mode == "hard":
            rule = lambda v: v if abs(v) >= lam else 0.0
            assert est.get(3, 0) == lam and est.get(3, 1) == -lam  # |y| = kappa t_n is kept
        else:
            rule = lambda v: math.copysign(max(abs(v) - lam, 0.0), v) if v else 0.0
        want = _reference_threshold(tree, j_cut, rule)
    assert est.scaling == 0.3 and est.j_max == tree.j_max
    assert sorted(est.levels) == sorted(want)
    assert 2 not in want and max(want) <= j_cut
    for j, arr in want.items():
        assert est.levels[j].tobytes() == arr.tobytes()
