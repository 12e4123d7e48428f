"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The rate criteria are asymptotic statements verified at desk scale, so every
experiment pins its truth so that the bias-variance transition sweeps through
the observed n-grid: the truth is the probe line through a dithered shell
tree (see truths.shell_tree) whose base amplitude places the thresholding
transition inside n in 2^10..2^18.  All tolerances below are fixed, not
calibrated at runtime.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from waverates.cli import validate_config, run
from waverates.dyadic import CoefficientTree, LevelIndex, reduce_dyadic
from waverates.estimators import (
    ShrinkageClass,
    choose_mn,
    classify_rule,
    linear_estimate,
    projection_weights,
    shrinkage_trace,
    threshold_estimate,
    universal_threshold,
)
from waverates.generic import GenericFunctionSpec, build_g, weak_exclusion_witness
from waverates.models import DensitySampler, empirical_coefficients, simulate_sequence
from waverates.rates import (
    EstimatorSpec,
    fit_slope,
    generic_alpha,
    monte_carlo_risk,
)
from waverates.spaces import (
    SmoothnessParams,
    WeakBesovParams,
    empirical_scaling,
    theoretical_scaling,
    weak_besov_functional,
)
from waverates.truths import density_truth_tree, probe_line_truth, shell_tree
from waverates.wavelet import GridSignal, analyze, get_filter, lp_norm, synthesize

N_GRID = [2**j for j in range(10, 19)]
R = 32
DENSE = SmoothnessParams(s=2, r=2, p=2, d=1)
SPARSE = SmoothnessParams(s=1.2, r=1, p=4, d=1)
THREADS = 4


def report(criterion, ok, measured, expected, tol):
    line = (f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
            f"measured={measured:.5g} expected={expected:.5g} tol={tol:.5g}")
    print(line)
    return ok


# -- shared expensive runs ----------------------------------------------------


@pytest.fixture(scope="module")
def dense_truth():
    # criterion 1 setup: probe line at alpha = 0.7 over a depth-16 shell
    return probe_line_truth(2, 2, 1, 16, base_amplitude=1024.0, alpha=0.7, dither=2.0)


@pytest.fixture(scope="module")
def dense_threshold_fit(dense_truth):
    (table,) = monte_carlo_risk((dense_truth,), EstimatorSpec("threshold_hard", kappa=2.0),
                                N_GRID, R, 2.0, 20240801, threads=THREADS)
    return fit_slope(table, "n_over_log_n")


@pytest.fixture(scope="module")
def sparse_truth():
    return probe_line_truth(1.2, 1, 1, 14, base_amplitude=2.0, alpha=0.7, dither=2.0)


@pytest.fixture(scope="module")
def sparse_linear_table(sparse_truth):
    return monte_carlo_risk((sparse_truth,), EstimatorSpec("projection", smoothness=SPARSE),
                            N_GRID, R, 4.0, 7, threads=THREADS)[0]


@pytest.fixture(scope="module")
def sparse_threshold_table(sparse_truth):
    return monte_carlo_risk((sparse_truth,), EstimatorSpec("threshold_hard", kappa=2.0),
                            N_GRID, R, 4.0, 7, threads=THREADS)[0]


# -- criteria -----------------------------------------------------------------


def test_criterion_1_dense_threshold_rate(dense_threshold_fit):
    fit = dense_threshold_fit
    ok_alpha = abs(fit.implied_alpha - 0.4) <= 0.08
    ok_r2 = fit.r_squared >= 0.98
    report("1.dense_threshold_alpha", ok_alpha, fit.implied_alpha, 0.4, 0.08)
    report("1.dense_threshold_r2", ok_r2, fit.r_squared, 0.98, 0.0)
    assert ok_alpha and ok_r2


def test_criterion_2_sparse_linear_vs_threshold(sparse_linear_table, sparse_threshold_table):
    lin = fit_slope(sparse_linear_table, "n")
    thr = fit_slope(sparse_threshold_table, "n_over_log_n")
    lin_target = 0.45 / 1.9
    thr_target = 0.45 / 1.4
    ok_lin = abs(lin.implied_alpha - lin_target) <= 0.08
    ok_thr = abs(thr.implied_alpha - thr_target) <= 0.08
    ok_gap = thr.implied_alpha - lin.implied_alpha >= 0.04
    report("2.sparse_linear_alpha", ok_lin, lin.implied_alpha, lin_target, 0.08)
    report("2.sparse_threshold_alpha", ok_thr, thr.implied_alpha, thr_target, 0.08)
    report("2.threshold_beats_linear", ok_gap, thr.implied_alpha - lin.implied_alpha, 0.04, 0.0)
    assert ok_lin and ok_thr and ok_gap


def test_criterion_3_probe_invariance(tmp_path):
    config = validate_config(json.dumps({
        "experiment_kind": "probe_sweep",
        "smoothness": {"s": 2, "r": 2, "p": 2, "d": 1},
        "truth_spec": {"kind": "generic_g", "base_amplitude": 1024.0, "dither": 2.0},
        "estimator_spec": {"kind": "threshold_hard", "kappa": 2.0},
        "probe_alphas": [-1.0, -0.3, 0.3, 1.0],
        "n_grid": N_GRID,
        "replicates": R,
        "master_seed": 20240801,
        "filter": "db2",
        "j_max": 16,
        "tolerances": {"spread": 0.05},
    }))
    verdict = run(replace(config, output_dir=str(tmp_path / "sweep"), threads=THREADS)).verdicts[0]
    ok = report("3.probe_spread", verdict["pass"], verdict["measured"], 0.0, 0.05)
    assert ok


def test_criterion_4_scaling_function_of_g():
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=14))
    ok = True
    for p, target in ((1.0, 2.0), (2.0, 2.0), (4.0, 1.75)):
        est = empirical_scaling(g, p, (4, 14))
        good = abs(est.estimate - target) <= 0.1
        report(f"4.scaling_p{p:g}", good, est.estimate, target, 0.1)
        ok = ok and good
    assert ok


def test_criterion_5_weak_exclusion_growth():
    witness = dict(weak_exclusion_witness(2, 2, 2, 1, 0.1, 30))
    ts = np.arange(10, 31)
    slope = float(np.polyfit(ts, np.log2([witness[t] for t in ts]), 1)[0])
    ok = abs(slope - 0.2) <= 0.2 * 0.2
    report("5.witness_log2_slope", ok, slope, 0.2, 0.04)
    assert ok


def test_criterion_6_closed_form_gaussian_risk():
    truths = (CoefficientTree.zeros(1, 8),)
    (table,) = monte_carlo_risk(truths, EstimatorSpec("projection", fixed_m_n=32.0),
                                [2**10, 2**14], R, 2.0, 123, j_max=8, threads=THREADS)
    ok = True
    for row in table.rows:
        good = abs(row.empirical_risk * row.n - 32.0) <= 3.0 * row.std_error * row.n
        report(f"6.projection_risk_n{row.n}", good, row.empirical_risk * row.n, 32.0,
               3.0 * row.std_error * row.n)
        ok = ok and good
    assert ok


def test_criterion_7_maxiset_bound_stability(sparse_linear_table):
    s_prime_p = (1.2 - 1.0 + 0.25) * 4.0
    products = [row.empirical_risk * choose_mn(SPARSE, row.n) ** s_prime_p
                for row in sparse_linear_table.rows]
    ratio = max(products) / min(products)
    ok = report("7.linear_bound_stability", ratio <= 3.0, ratio, 1.0, 3.0)
    assert ok


def test_criterion_8_one_sided_lower_bounds(dense_truth, dense_threshold_fit):
    # limited rule: the tuned projection must not beat the generic exponent
    (table,) = monte_carlo_risk((dense_truth,), EstimatorSpec("projection", smoothness=DENSE),
                                N_GRID, R, 2.0, 20240801, threads=THREADS)
    proj = fit_slope(table, "n")
    limited_alpha = generic_alpha("limited", DENSE).alpha
    elitist_alpha = generic_alpha("elitist", DENSE).alpha
    ok_lim = proj.implied_alpha <= limited_alpha + 0.08
    ok_eli = dense_threshold_fit.implied_alpha <= elitist_alpha + 0.08
    report("8.limited_upper", ok_lim, proj.implied_alpha, limited_alpha, 0.08)
    report("8.elitist_upper", ok_eli, dense_threshold_fit.implied_alpha, elitist_alpha, 0.08)
    assert ok_lim and ok_eli


def test_criterion_9_structural_suites(tmp_path):
    filt = get_filter("db4")
    rng = np.random.default_rng(99)

    # round trips within 1e-10
    sig = GridSignal(9, rng.standard_normal(512))
    tree = analyze(sig, filt, 8)
    err = float(np.max(np.abs(synthesize(tree, filt, 9).samples - sig.samples)))
    ok = report("9.round_trip", err < 1e-10, err, 0.0, 1e-10)

    # Parseval within relative 1e-8 at resolution j_max + 6
    deep = CoefficientTree(1, 6, 0.5, {j: rng.standard_normal(1 << j) for j in range(7)})
    quad = lp_norm(synthesize(deep, filt, 12), 2.0) ** 2
    rel = abs(quad - deep.total_energy()) / deep.total_energy()
    ok &= report("9.parseval", rel < 1e-8, rel, 0.0, 1e-8)

    # weak-functional homogeneity, exact on matched dyadic grids
    lam = 2.0 ** (-np.arange(31, dtype=np.float64))
    params = WeakBesovParams(1.0, 2.0)
    base = weak_besov_functional(deep, params, lambda_grid=lam)
    exact = all(
        weak_besov_functional((2.0**-m) * deep, params, lambda_grid=(2.0**-m) * lam)
        == (2.0**-m) * base
        for m in (1, 2, 3)
    )
    ok &= report("9.weak_homogeneity", exact, float(exact), 1.0, 0.0)

    # dyadic reduction against the gcd oracle, exhaustive j <= 10
    agree = all(
        (lambda out, g: (out.j, out.k[0]) == g)(
            reduce_dyadic(LevelIndex(j, (k,), 1)),
            (j - int(math.log2(math.gcd(k, 1 << j))), k // math.gcd(k, 1 << j))
            if k else (0, 0),
        )
        for j in range(11)
        for k in range(1 << j)
    )
    ok &= report("9.reduce_vs_gcd", agree, float(agree), 1.0, 0.0)

    # classification truths over 100 seeds
    truth = shell_tree(2, 2, 1, 5, 4.0)
    good = 0
    for seed in range(100):
        obs = simulate_sequence(truth, 256, 5, seed=seed)
        elitist = classify_rule(
            shrinkage_trace(obs, threshold_estimate(obs.y, 256, kappa=2.0, mode="hard")),
            ShrinkageClass("elitist", 2.0 * universal_threshold(256) * 0.999, 0.5),
        )
        m_n = choose_mn(DENSE, 256)
        limited = classify_rule(
            shrinkage_trace(obs, linear_estimate(obs.y, projection_weights(m_n))),
            ShrinkageClass("limited", 2.0 ** (-math.ceil(math.log2(m_n))), 0.5),
        )
        good += elitist and limited
    ok &= report("9.rule_classification", good == 100, good, 100, 0)

    # byte-identical rerun under a fixed seed
    cfg_json = json.dumps({
        "experiment_kind": "rate_fit",
        "smoothness": {"s": 2, "r": 2, "p": 2, "d": 1},
        "truth_spec": {"kind": "generic_g", "base_amplitude": 64.0, "dither": 2.0},
        "estimator_spec": {"kind": "threshold_hard"},
        "n_grid": [256, 512, 1024, 2048],
        "replicates": 8,
        "master_seed": 5,
        "j_max": 8,
    })
    out = str(tmp_path / "det")
    run(replace(validate_config(cfg_json), output_dir=out))
    first = (tmp_path / "det" / "risk_threshold_hard.csv").read_bytes()
    run(replace(validate_config(cfg_json), output_dir=out))
    second = (tmp_path / "det" / "risk_threshold_hard.csv").read_bytes()
    ok &= report("9.byte_identical_rerun", first == second, float(first == second), 1.0, 0.0)
    assert ok


def test_criterion_10_density_model():
    filt = get_filter("db2")

    # uniform-density empirical coefficients are unbiased at zero
    from waverates.truths import uniform_density_tree

    uniform = uniform_density_tree(8)
    runs = 50
    acc = np.empty((runs, 2))
    sampler = DensitySampler.from_tree(uniform, filt)
    for rep in range(runs):
        s = sampler.sample(500, seed=np.random.SeedSequence((13, rep)))
        beta = empirical_coefficients(s, filt, 3)
        acc[rep] = [beta.get(2, 1), beta.get(3, 4)]
    se = acc.std(axis=0, ddof=1) / np.sqrt(runs)
    unbiased = bool(np.all(np.abs(acc.mean(axis=0)) < 3.0 * se))
    ok = report("10.uniform_unbiased", unbiased, float(np.max(np.abs(acc.mean(axis=0)))),
                0.0, float(np.max(3.0 * se)))

    # thresholded density estimation recovers the dense-regime exponent
    truth = density_truth_tree(shell_tree(2, 2, 1, 10, 1.0, dither=2.0, j_min=2))
    (table,) = monte_carlo_risk((truth,), EstimatorSpec("density_threshold"),
                                [2**j for j in range(10, 17)], R, 2.0, 99, threads=THREADS)
    fit = fit_slope(table, "n_over_log_n")
    good = abs(fit.implied_alpha - 0.4) <= 0.12
    ok &= report("10.density_threshold_alpha", good, fit.implied_alpha, 0.4, 0.12)
    assert ok
