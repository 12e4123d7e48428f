import math

import numpy as np
import pytest

from waverates.dyadic import CoefficientTree
from waverates.generic import GenericFunctionSpec, build_g
from waverates.rates import generic_alpha
from waverates.spaces import (
    ScalingFunctionEstimate,
    SmoothnessParams,
    WeakBesovParams,
    besov_norm,
    empirical_scaling,
    theoretical_scaling,
    weak_besov_functional,
)


def random_tree(rng, j_max=8, decay=1.0):
    levels = {j: rng.standard_normal(1 << j) * 2.0 ** (-decay * j) for j in range(j_max + 1)}
    return CoefficientTree(1, j_max, rng.standard_normal(), levels)


def test_smoothness_params_validation():
    SmoothnessParams(s=2, r=2, p=2)
    SmoothnessParams(s=0.6, r=math.inf, p=1)  # d/r = 0
    with pytest.raises(ValueError):
        SmoothnessParams(s=0.4, r=2, p=2)  # s <= d/r
    with pytest.raises(ValueError):
        SmoothnessParams(s=2, r=0.5, p=2)
    with pytest.raises(ValueError):
        SmoothnessParams(s=2, r=2, p=math.inf)


def test_besov_norm_single_coefficient():
    tree = CoefficientTree.from_items(1, 6, 0.0, [((5, 3), 1.0)])
    # exponent s - d/r + d/2 = 1 at (s=1, r=2, d=1): 2^5
    assert abs(besov_norm(tree, 1.0, 2.0) - 32.0) < 1e-12


def test_besov_norm_zero_and_scaling():
    assert besov_norm(CoefficientTree.zeros(1, 5), 1.0, 2.0) == 0.0
    assert besov_norm(CoefficientTree(1, 5, scaling=-2.0), 1.0, 2.0) == 2.0


def test_besov_norm_homogeneity():
    rng = np.random.default_rng(1)
    tree = random_tree(rng)
    for alpha in (0.5, 3.0):
        got = besov_norm(alpha * tree, 1.5, 2.0)
        assert abs(got - alpha * besov_norm(tree, 1.5, 2.0)) < 1e-10 * max(got, 1)


def test_besov_norm_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = random_tree(rng), random_tree(rng)
        for r, q in ((1.0, 1.0), (2.0, math.inf), (3.0, 2.0)):
            lhs = besov_norm(a + b, 1.2, r, q)
            rhs = besov_norm(a, 1.2, r, q) + besov_norm(b, 1.2, r, q)
            assert lhs <= rhs + 1e-10


def test_besov_norm_monotone_in_s():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tree = random_tree(rng)
        assert besov_norm(tree, 0.8, 2.0) <= besov_norm(tree, 1.6, 2.0) + 1e-12


def test_besov_norm_r_infinity():
    tree = CoefficientTree.from_items(1, 4, 0.0, [((3, 1), 2.0), ((3, 5), -1.0)])
    # sup_k |c| * 2^{(s + 1/2) j}
    assert abs(besov_norm(tree, 1.0, math.inf) - 2.0 * 2.0**4.5) < 1e-12


def test_weak_functional_zero_tree():
    assert weak_besov_functional(CoefficientTree.zeros(1, 4), WeakBesovParams(1.0, 2.0)) == 0.0


def test_weak_functional_single_coefficient():
    # strict inequality: lambda = 1 contributes nothing, max at lambda = 1/2
    tree = CoefficientTree.from_items(1, 4, 0.0, [((3, 2), 1.0)])
    got = weak_besov_functional(tree, WeakBesovParams(1.0, 2.0), 10)
    assert got == 0.5


def test_weak_functional_homogeneity_on_rescaled_grid():
    # scaling identity when the threshold grid is rescaled along with the tree;
    # bit-exact for rho = 1 and dyadic alpha (all factors are powers of two)
    rng = np.random.default_rng(4)
    tree = random_tree(rng, j_max=7)
    lam = 2.0 ** (-np.arange(31, dtype=np.float64))
    exact = WeakBesovParams(1.0, 2.0)
    base = weak_besov_functional(tree, exact, lambda_grid=lam)
    for m in (1, 2, 3):
        alpha = 2.0**-m
        scaled = weak_besov_functional(alpha * tree, exact, lambda_grid=alpha * lam)
        assert scaled == alpha * base
    # fractional rho picks up one rounding of alpha**rho, nothing more
    frac = WeakBesovParams(0.7, 2.0)
    base = weak_besov_functional(tree, frac, lambda_grid=lam)
    for m in (1, 2, 3):
        alpha = 2.0**-m
        scaled = weak_besov_functional(alpha * tree, frac, lambda_grid=alpha * lam)
        assert abs(scaled - alpha**frac.rho * base) <= 4e-16 * base


def test_weak_functional_contains_besov_ball():
    # trees on the critical ball beta = (d/2)(p/r - 1): functional stays bounded
    # as the threshold grid refines
    rng = np.random.default_rng(5)
    r, p = 2.0, 3.0
    beta = 0.5 * (p / r - 1.0)
    for _ in range(5):
        levels = {
            j: rng.standard_normal(1 << j) * 2.0 ** (-(beta + 0.5 + 1.0 / r) * j)
            for j in range(13)
        }
        tree = CoefficientTree(1, 12, 0.0, levels)
        tree = (1.0 / besov_norm(tree, beta, r)) * tree
        vals = [weak_besov_functional(tree, WeakBesovParams(r, p), t) for t in (10, 20, 30)]
        assert max(vals) <= 1.05 * min(vals)


def test_empirical_scaling_exact_power_law():
    # one coefficient per level, c_j = 2^{-(sigma + 1/2) j}: estimate = sigma + d/p
    sigma = 1.0
    items = [((j, 1), 2.0 ** (-(sigma + 0.5) * j)) for j in range(1, 13)]
    tree = CoefficientTree.from_items(1, 12, 0.0, items)
    est = empirical_scaling(tree, 2.0, (1, 12))
    assert abs(est.estimate - 1.5) < 1e-9
    assert est.residual < 1e-9


@pytest.mark.parametrize("p,target", [(1.0, 2.0), (2.0, 2.0), (4.0, 1.75)])
def test_empirical_scaling_of_saturating_tree(p, target):
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=14))
    est = empirical_scaling(g, p, (4, 14))
    assert abs(est.estimate - target) <= 0.1


def test_empirical_scaling_errors():
    tree = CoefficientTree.from_items(1, 8, 0.0, [((j, 0), 2.0**-j) for j in range(1, 7)])
    with pytest.raises(ValueError):
        empirical_scaling(tree, 2.0, (3, 4))  # shorter than 3 levels
    with pytest.raises(ValueError):
        empirical_scaling(tree, 2.0, (5, 8))  # all-zero level 7 in window
    with pytest.raises(ValueError):
        empirical_scaling(tree, 2.0, (0, 5))  # log2 regressor needs j >= 1


def test_scaling_estimate_invariants():
    with pytest.raises(ValueError):
        ScalingFunctionEstimate(2.0, 1.0, (5, 5), 0.0)
    with pytest.raises(ValueError):
        ScalingFunctionEstimate(2.0, 1.0, (1, 5), -0.1)


def test_theoretical_scaling_branches():
    assert theoretical_scaling(2, 2, 1, 1) == 2.0
    assert theoretical_scaling(2, 2, 2, 1) == 2.0  # boundary: branches agree
    assert abs(theoretical_scaling(2, 2, 4, 1) - 1.75) < 1e-15
    with pytest.raises(ValueError):
        theoretical_scaling(0.4, 2, 1, 1)


def test_theoretical_weak_scaling_branches():
    # the weak scaling exponent is generic_alpha("threshold").alpha_tilde:
    # 2s / (2s + d) on the dense branch, 2 (s - d/r + d/p) / (2 (s - d/r) + d) on the sparse one
    def weak_scaling(s, r, p, d):
        return generic_alpha("threshold", SmoothnessParams(s=s, r=r, p=p, d=d)).alpha_tilde

    assert abs(weak_scaling(2, 2, 2, 1) - 0.8) < 1e-15
    assert abs(weak_scaling(1.2, 1, 4, 1) - 0.9 / 1.4) < 1e-15
    # boundary r = p d / (2s + d) goes to the sparse branch (r = 2 here, inside r >= 1)
    s, p, d = 2.0, 10.0, 1
    r_star = p * d / (2 * s + d)
    sparse = 2 * (s - d / r_star + d / p) / (2 * (s - d / r_star) + d)
    boundary = generic_alpha("threshold", SmoothnessParams(s=s, r=r_star, p=p, d=d))
    assert boundary.branch == "sparse" and boundary.alpha_tilde == sparse
    with pytest.raises(ValueError):
        weak_scaling(1.0, 1.0, 2.0, 1)  # s <= d/r
