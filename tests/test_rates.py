import math
import sys

import numpy as np
import pytest

from waverates import models
from waverates.dyadic import CoefficientTree
from waverates.rates import (
    EstimatorSpec,
    ModelSpec,
    RiskRow,
    RiskTable,
    fit_slope,
    generic_alpha,
    linear_minimax_rate,
    minimax_rate,
    monte_carlo_risk,
)
from waverates.spaces import SmoothnessParams, theoretical_weak_scaling
from waverates.truths import density_truth_tree, shell_tree

DENSE = SmoothnessParams(s=2, r=2, p=2, d=1)
SPARSE = SmoothnessParams(s=1.2, r=1, p=4, d=1)


def test_minimax_rate_examples():
    regime, value = minimax_rate(DENSE, 1024)
    assert regime.branch == "dense" and regime.normalization == "n"
    assert abs(value - 1024.0**-0.8) < 1e-12
    assert abs(value - 3.906e-3) < 1e-5

    regime, _ = minimax_rate(SPARSE, 1024)
    assert regime.branch == "sparse" and regime.normalization == "n_over_log_n"
    assert abs(regime.alpha * 4 - 4 * 0.45 / 1.4) < 1e-12

    # boundary r = d p / (2s + d) goes sparse
    s, p, d = 0.8, 4.0, 1
    boundary = SmoothnessParams(s=s, r=p * d / (2 * s + d), p=p, d=d)
    regime, _ = minimax_rate(boundary, 100)
    assert regime.branch == "sparse"


def test_linear_minimax_rate_examples():
    regime, _ = linear_minimax_rate(SmoothnessParams(s=2, r=4, p=2, d=1), 100)
    assert regime.branch == "dense" and abs(regime.alpha * 2 - 0.8) < 1e-12

    regime, _ = linear_minimax_rate(SPARSE, 100)
    assert abs(regime.alpha * 4 - 4 * 0.45 / 1.9) < 1e-12

    # r = p boundary: strict inequality, else-branch
    regime, _ = linear_minimax_rate(DENSE, 100)
    assert regime.branch == "sparse"
    assert abs(regime.alpha - 0.4) < 1e-12  # s' = s when r = p


def test_generic_alpha_examples():
    lin = generic_alpha("linear", DENSE)
    assert lin.branch == "dense" and lin.alpha == 0.4 and lin.normalization == "n"

    thr = generic_alpha("threshold", SPARSE)
    assert thr.branch == "sparse" and thr.normalization == "n_over_log_n"
    assert abs(thr.alpha - 0.45 / 1.4) < 1e-12

    with pytest.raises(ValueError):
        generic_alpha("quantum", DENSE)


def test_generic_alpha_rate_identities():
    # over a parameter grid: threshold exponent matches minimax on both
    # branches; linear matches the linear-minimax exponent whenever r > p;
    # alpha_tilde is exactly twice alpha and halves the weak scaling exponent
    rng = np.random.default_rng(0)
    count = 0
    while count < 50:
        s = float(rng.uniform(0.6, 3.0))
        r = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0, math.inf]))
        p = float(rng.choice([1.0, 2.0, 3.0, 4.0, 6.0]))
        if s <= 1.0 / r:
            continue
        count += 1
        params = SmoothnessParams(s=s, r=r, p=p, d=1)
        thr = generic_alpha("threshold", params)
        mm, _ = minimax_rate(params, 100)
        assert abs(thr.alpha - mm.alpha) < 1e-12
        assert thr.alpha_tilde == 2.0 * thr.alpha
        if not math.isinf(r):
            assert abs(thr.alpha_tilde - theoretical_weak_scaling(s, r, p, 1)) < 1e-12
        if r > p:
            lin = generic_alpha("linear", params)
            lm, _ = linear_minimax_rate(params, 100)
            assert abs(lin.alpha - lm.alpha) < 1e-12
        assert generic_alpha("limited", params).alpha == generic_alpha("linear", params).alpha
        assert generic_alpha("elitist", params).alpha == thr.alpha


def test_risk_table_validation():
    rows = [RiskRow(10, 1.0, 0.1, 4), RiskRow(5, 1.0, 0.1, 4)]
    with pytest.raises(ValueError):
        RiskTable(rows=rows, loss_p=2.0)
    with pytest.raises(ValueError):
        RiskTable(rows=[RiskRow(10, -1.0, 0.1, 4)], loss_p=2.0)


def test_monte_carlo_deterministic_and_threaded():
    truth = shell_tree(2, 2, 1, 6, 2.0)
    model = ModelSpec(kind="sequence", filter_name="db2")
    est = EstimatorSpec("threshold_hard")
    a = monte_carlo_risk(truth, est, model, [64, 256], 8, 2.0, 4242)
    b = monte_carlo_risk(truth, est, model, [64, 256], 8, 2.0, 4242, threads=3)
    assert [r.empirical_risk for r in a.rows] == [r.empirical_risk for r in b.rows]
    assert [r.std_error for r in a.rows] == [r.std_error for r in b.rows]
    c = monte_carlo_risk(truth, est, model, [64, 256], 8, 2.0, 4243)
    assert a.rows[0].empirical_risk != c.rows[0].empirical_risk


def test_monte_carlo_density_deterministic_and_threaded():
    # one DensitySampler and the wavelet-support cache are shared by the pool;
    # start the cache cold and switch threads often to expose a lost update
    truth = density_truth_tree(shell_tree(2, 2, 1, 6, 1.0, dither=2.0, j_min=2))
    model = ModelSpec(kind="density", filter_name="db3")
    est = EstimatorSpec("density_threshold")
    a = monte_carlo_risk(truth, est, model, [256, 1024], 8, 2.0, 4242)
    models._PSI_CACHE.clear()
    models._PHI_CACHE.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        b = monte_carlo_risk(truth, est, model, [256, 1024], 8, 2.0, 4242, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert [r.empirical_risk for r in a.rows] == [r.empirical_risk for r in b.rows]
    assert [r.std_error for r in a.rows] == [r.std_error for r in b.rows]
    c = monte_carlo_risk(truth, est, model, [256, 1024], 8, 2.0, 4243)
    assert a.rows[0].empirical_risk != c.rows[0].empirical_risk


def test_monte_carlo_zero_weight_estimator_constant_risk():
    # all wavelet weights zero (scaling kept): risk = wavelet energy + O(1/n)
    truth = shell_tree(2, 2, 1, 5, 1.0)
    model = ModelSpec(kind="sequence", filter_name="db2")
    est = EstimatorSpec("projection", fixed_m_n=0.0)
    table = monte_carlo_risk(truth, est, model, [2**8, 2**12], 16, 2.0, 9)
    energy = truth.wavelet_energy()
    for row in table.rows:
        assert abs(row.empirical_risk - energy) < 2.0 / row.n + 3 * row.std_error


def test_monte_carlo_projection_closed_form_gaussian():
    # truth 0, keep 2^5 coefficients (31 wavelet + scaling): risk * n = 32
    truth = CoefficientTree.zeros(1, 8)
    model = ModelSpec(kind="sequence", filter_name="db2", j_max=8)
    est = EstimatorSpec("projection", fixed_m_n=32.0)
    table = monte_carlo_risk(truth, est, model, [2**10, 2**14], 32, 2.0, 123)
    for row in table.rows:
        assert abs(row.empirical_risk * row.n - 32.0) <= 3.0 * row.std_error * row.n


def test_monte_carlo_standard_error_scaling():
    truth = shell_tree(2, 2, 1, 6, 2.0)
    model = ModelSpec(kind="sequence", filter_name="db2")
    est = EstimatorSpec("threshold_hard")
    se = {}
    for R in (64, 256):
        rows = monte_carlo_risk(truth, est, model, [256], R, 2.0, 5).rows
        se[R] = rows[0].std_error
    assert abs(se[256] / se[64] - 0.5) < 0.2  # 1/sqrt(R) within 20% at these R


def test_monte_carlo_incompatible_model():
    truth = shell_tree(2, 2, 1, 5, 1.0)
    with pytest.raises(ValueError):
        monte_carlo_risk(
            truth,
            EstimatorSpec("density_threshold"),
            ModelSpec(kind="sequence"),
            [64, 128],
            4,
            2.0,
            1,
        )


def synthetic_table(risks, ns=None, p=2.0):
    ns = ns or [2**j for j in range(8, 8 + len(risks))]
    rows = [RiskRow(n, r, 0.01 * r, 8) for n, r in zip(ns, risks)]
    return RiskTable(rows=tuple(rows), loss_p=p)


def test_fit_slope_exact_power_law():
    ns = [2**j for j in range(8, 16)]
    table = synthetic_table([float(n) ** -0.8 for n in ns], ns)
    fit = fit_slope(table, "n")
    assert abs(fit.slope + 0.8) < 1e-12
    assert fit.r_squared == 1.0
    assert abs(fit.implied_alpha - 0.4) < 1e-12


def test_fit_slope_perturbed_power_law():
    rng = np.random.default_rng(6)
    ns = [2**j for j in range(8, 18)]
    risks = [float(n) ** -0.8 * (1.0 + 0.01 * rng.standard_normal()) for n in ns]
    fit = fit_slope(synthetic_table(risks, ns), "n")
    assert abs(fit.slope + 0.8) < 0.02


def test_fit_slope_constant_table():
    fit = fit_slope(synthetic_table([0.5, 0.5, 0.5, 0.5]), "n")
    assert abs(fit.slope) < 1e-12


def test_fit_slope_normalization_and_errors():
    ns = [2**j for j in range(8, 12)]
    table = synthetic_table([(n / math.log(n)) ** -0.6 for n in ns], ns)
    fit = fit_slope(table, "n_over_log_n")
    assert abs(fit.slope + 0.6) < 1e-12
    with pytest.raises(ValueError):
        fit_slope(synthetic_table([1.0, 0.5, 0.25]), "n")  # fewer than 4 rows
    bad = synthetic_table([1.0, 0.5, 0.0, 0.125])
    with pytest.warns(UserWarning):
        fit_slope(bad, "n")
