import math
import sys

import numpy as np
import pytest

from waverates import models
from waverates.dyadic import CoefficientTree
from waverates.estimators import (
    density_threshold_estimate,
    linear_estimate,
    noise_depth,
    projection_weights,
    threshold_estimate,
)
from waverates.models import DensitySampler, empirical_coefficients, simulate_sequence
from waverates.rates import (
    ESTIMATOR_KINDS,
    _energy_loss,
    _level_energies,
    SYNTHESIS_PAD,
    EstimatorSpec,
    RiskRow,
    RiskTable,
    fit_slope,
    generic_alpha,
    minimax_rate,
    monte_carlo_risk,
)
from waverates.spaces import SmoothnessParams
from waverates.truths import density_truth_tree, shell_tree
from waverates.wavelet import get_filter, lp_mean, synthesize

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
    # the linear minimax rate is generic_alpha("linear")
    lin = generic_alpha("linear", SmoothnessParams(s=2, r=4, p=2, d=1))
    assert lin.branch == "dense" and abs(lin.alpha * 2 - 0.8) < 1e-12

    lin = generic_alpha("linear", SPARSE)
    assert lin.branch == "sparse" and abs(lin.alpha * 4 - 4 * 0.45 / 1.9) < 1e-12

    # r = p boundary: dense, polynomial in n (linear rates carry no log factor)
    lin = generic_alpha("linear", DENSE)
    assert lin.branch == "dense" and lin.normalization == "n"
    assert abs(lin.alpha - 0.4) < 1e-12


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
    # branches; alpha_tilde is exactly twice alpha
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
        assert generic_alpha("limited", params).alpha == generic_alpha("linear", params).alpha
        assert generic_alpha("elitist", params).alpha == thr.alpha


def test_risk_table_validation():
    rows = [RiskRow(10, 1.0, 0.1, 4), RiskRow(5, 1.0, 0.1, 4)]
    with pytest.raises(ValueError):
        RiskTable(rows=rows, loss_p=2.0)
    with pytest.raises(ValueError):
        RiskTable(rows=[RiskRow(10, -1.0, 0.1, 4)], loss_p=2.0)


def test_monte_carlo_deterministic_and_threaded():
    truths = (shell_tree(2, 2, 1, 6, 2.0),)
    est = EstimatorSpec("threshold_hard")
    (a,) = monte_carlo_risk(truths, est, [64, 256], 8, 2.0, 4242)
    (b,) = monte_carlo_risk(truths, est, [64, 256], 8, 2.0, 4242, threads=3)
    assert [r.empirical_risk for r in a.rows] == [r.empirical_risk for r in b.rows]
    assert [r.std_error for r in a.rows] == [r.std_error for r in b.rows]
    (c,) = monte_carlo_risk(truths, est, [64, 256], 8, 2.0, 4243)
    assert a.rows[0].empirical_risk != c.rows[0].empirical_risk


def test_monte_carlo_density_deterministic_and_threaded():
    # one DensitySampler and the wavelet-support cache are shared by the pool;
    # start the cache cold and switch threads often to expose a lost update
    truths = (density_truth_tree(shell_tree(2, 2, 1, 6, 1.0, dither=2.0, j_min=2)),)
    est = EstimatorSpec("density_threshold")
    (a,) = monte_carlo_risk(truths, est, [256, 1024], 8, 2.0, 4242, filter_name="db3")
    models._PSI_CACHE.clear()
    models._PHI_CACHE.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (b,) = monte_carlo_risk(truths, est, [256, 1024], 8, 2.0, 4242, filter_name="db3",
                                threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert [r.empirical_risk for r in a.rows] == [r.empirical_risk for r in b.rows]
    assert [r.std_error for r in a.rows] == [r.std_error for r in b.rows]
    (c,) = monte_carlo_risk(truths, est, [256, 1024], 8, 2.0, 4243, filter_name="db3")
    assert a.rows[0].empirical_risk != c.rows[0].empirical_risk


def test_monte_carlo_zero_weight_estimator_constant_risk():
    # all wavelet weights zero (scaling kept): risk = wavelet energy + O(1/n)
    truth = shell_tree(2, 2, 1, 5, 1.0)
    est = EstimatorSpec("projection", fixed_m_n=0.0)
    (table,) = monte_carlo_risk((truth,), est, [2**8, 2**12], 16, 2.0, 9)
    energy = truth.wavelet_energy()
    for row in table.rows:
        assert abs(row.empirical_risk - energy) < 2.0 / row.n + 3 * row.std_error


def test_monte_carlo_projection_closed_form_gaussian():
    # truth 0, keep 2^5 coefficients (31 wavelet + scaling): risk * n = 32
    truths = (CoefficientTree.zeros(1, 8),)
    est = EstimatorSpec("projection", fixed_m_n=32.0)
    (table,) = monte_carlo_risk(truths, est, [2**10, 2**14], 32, 2.0, 123, j_max=8)
    for row in table.rows:
        assert abs(row.empirical_risk * row.n - 32.0) <= 3.0 * row.std_error * row.n


def test_monte_carlo_standard_error_scaling():
    truths = (shell_tree(2, 2, 1, 6, 2.0),)
    est = EstimatorSpec("threshold_hard")
    se = {}
    for R in (64, 256):
        rows = monte_carlo_risk(truths, est, [256], R, 2.0, 5)[0].rows
        se[R] = rows[0].std_error
    assert abs(se[256] / se[64] - 0.5) < 0.2  # 1/sqrt(R) within 20% at these R


def reference_risk(truth, est, filter_name, j_max, n_grid, R, p, master_seed):
    """monte_carlo_risk written out for one estimator kind, replicate by replicate."""
    filt = get_filter(filter_name)
    sampler = DensitySampler.from_tree(truth, filt) if est.model == "density" else None
    rows = []
    for n in n_grid:
        losses = []
        for rep in range(R):
            seed = np.random.SeedSequence((master_seed, n, rep))
            if sampler is None:
                depth = j_max if j_max is not None else truth.j_max
                y = simulate_sequence(truth, n, depth, seed).y
            else:
                sample = sampler.sample(n, seed)
            if est.kind == "projection":
                m_n = est.cutoff(n)
                estimate = linear_estimate(y, {j: 1.0 for j in range(64) if 2.0**j < m_n})
            elif est.kind == "pinsker":
                m_n = math.log2(est.cutoff(n))
                estimate = linear_estimate(y, {j: max(0.0, 1.0 - (j / m_n) ** est.pinsker_order)
                                               for j in range(64)})
            elif est.kind in ("threshold_hard", "threshold_soft"):
                estimate = threshold_estimate(y, n, est.kappa, est.kind.split("_")[1])
            elif est.kind == "density_linear":
                cutoff = -1  # the largest level j with 2^j < m_n
                while 2.0 ** (cutoff + 1) < est.cutoff(n):
                    cutoff += 1
                depth = j_max if j_max is not None else max(cutoff, 0)
                beta = empirical_coefficients(sample, filt, depth)
                estimate = CoefficientTree(d=1, j_max=depth, scaling=beta.scaling, levels={
                    j: level for j, level in beta.levels.items() if j <= cutoff})
            else:
                depth = j_max if j_max is not None else noise_depth(n)
                estimate = density_threshold_estimate(
                    empirical_coefficients(sample, filt, depth), n)
            diff = estimate - truth
            if p == 2.0:
                losses.append(diff.total_energy())
            else:
                coarse = synthesize(diff, filt, diff.j_max + 1)
                losses.append(lp_mean(coarse, filt, diff.j_max + SYNTHESIS_PAD, p))
        rows.append((float(np.mean(losses)), float(np.std(losses, ddof=1) / math.sqrt(R))))
    return rows


# the density kinds at p = 4 and j_max None synthesize each truth at one
# resolution per read depth of the n-grid
ENGINE_CASES = [
    (kind, p, j_max)
    for kind in ESTIMATOR_KINDS
    for p in (2.0, 4.0)
    for j_max in (None, 2)
]


@pytest.mark.parametrize("kind,p,j_max", ENGINE_CASES)
def test_monte_carlo_risk_matches_reference_loop(kind, p, j_max):
    # at the larger n the linear cutoff level (3) and the kept thresholds reach
    # past j_max = 2, so the observed depth matters
    if ESTIMATOR_KINDS[kind].model == "sequence":
        truth, n_grid, filter_name = shell_tree(2, 2, 1, 6, 64.0, dither=2.0), [4096, 65536], "db2"
    else:
        truth = density_truth_tree(shell_tree(2, 2, 1, 6, 1.0, dither=2.0, j_min=2))
        n_grid, filter_name = [1024, 65536], "db3"
    est = EstimatorSpec(kind, smoothness=DENSE)
    (table,) = monte_carlo_risk((truth,), est, n_grid, 3, p, 31, filter_name=filter_name,
                                j_max=j_max, threads=2)
    want = reference_risk(truth, est, filter_name, j_max, n_grid, 3, p, 31)
    got = [(row.empirical_risk, row.std_error) for row in table.rows]
    if p == 2.0:
        assert got == want
        return
    # the engine subtracts the truth's grid from the estimate's, the reference
    # synthesizes the difference tree: equal up to roundoff, and bit for bit
    # independent of scheduling.  Losses within 1e-12 relative move the
    # standard error by at most 1e-12 sqrt(se^2 + mean^2 / (R - 1)), R = 3, the
    # std being 1-Lipschitz in the losses' l2 norm.
    for (risk, se), (want_risk, want_se) in zip(got, want):
        assert abs(risk - want_risk) <= 1e-12 * want_risk
        assert abs(se - want_se) <= 1e-12 * math.hypot(want_se, want_risk / math.sqrt(2))
    (serial,) = monte_carlo_risk((truth,), est, n_grid, 3, p, 31, filter_name=filter_name,
                                 j_max=j_max, threads=1)
    assert serial.rows == table.rows


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


def test_projection_read_depth_is_its_last_kept_level():
    ms = [0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 3.0]
    for k in range(1, 40):
        m = 2.0**k
        ms += [np.nextafter(m, 0.0), m, np.nextafter(m, np.inf)]
    depth = {}
    for m in ms:
        kept = [j for j in range(64) if 2.0**j < m]
        assert projection_weights(m) == dict.fromkeys(kept, 1.0)
        for kind in ("projection", "density_linear"):
            depth[m], _ = ESTIMATOR_KINDS[kind].rule(EstimatorSpec(kind, fixed_m_n=m), 1024)
            assert depth[m] == max(kept, default=0)
    assert depth[1.0] == depth[np.nextafter(1.0, 2.0)] == 0
    assert depth[8.0] == 2 and depth[np.nextafter(8.0, 9.0)] == 3


def test_estimator_spec_checks_its_numbers():
    assert EstimatorSpec("threshold_hard", kappa=3).kappa == 3.0
    for kwargs, message in [
        (dict(kind="projection", fixed_m_n="8"), "fixed_m_n must be a finite number"),  # text
        (dict(kind="threshold_hard", kappa=0.0), "kappa must be positive"),
        (dict(kind="pinsker", smoothness=DENSE, pinsker_order=-1), "pinsker_order must be"),
        (dict(kind="projection", fixed_m_n="many"), "fixed_m_n must be a finite number"),
        (dict(kind="projection", fixed_m_n=-1.0), "fixed_m_n must be a finite number"),
        (dict(kind="projection", fixed_m_n=math.inf), "fixed_m_n must be a finite number"),
        (dict(kind="threshold_soft", kappa=None), "kappa must be positive and finite"),
        (dict(kind="threshold_hard", kappa=math.nan), "kappa must be positive and finite"),
        (dict(kind="threshold_soft", kappa=math.inf), "kappa must be positive and finite"),
        (dict(kind="pinsker", smoothness=DENSE, pinsker_order=math.nan),
         "pinsker_order must be positive and finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            EstimatorSpec(**kwargs)


def test_pinsker_below_one_level_keeps_no_wavelet_level():
    # m_n <= 1 keeps no level under either linear profile
    truths = (shell_tree(2, 2, 1, 5, 1.0),)
    risks = [monte_carlo_risk(truths, EstimatorSpec(kind, fixed_m_n=0.5), [256, 512], 4,
                              2.0, 3)[0].risks for kind in ("projection", "pinsker")]
    assert np.array_equal(risks[0], risks[1])


MULTI_CASES = [
    ("threshold_hard", 2.0, None), ("threshold_soft", 2.0, 5), ("projection", 4.0, None),
    ("pinsker", 2.0, None), ("density_threshold", 2.0, None), ("density_linear", 2.0, 4),
]


@pytest.mark.parametrize("kind,p,j_max", MULTI_CASES)
@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_risk_over_truths_matches_one_truth_calls(kind, p, j_max, threads):
    # the truths differ in depth and in missing levels but share one draw per (n, rep)
    if ESTIMATOR_KINDS[kind].model == "sequence":
        truths = (shell_tree(2, 2, 1, 6, 64.0, dither=2.0), shell_tree(2, 2, 1, 8, 8.0, j_min=3),
                  CoefficientTree.zeros(1, 4))
        n_grid, filter_name = [256, 4096, 65536], "db2"
    else:
        truths = tuple(density_truth_tree(shell_tree(2, 2, 1, 6, a, dither=2.0, j_min=2))
                       for a in (1.0, 0.5))
        n_grid, filter_name = [1024, 16384], "db3"
    est = EstimatorSpec(kind, smoothness=DENSE)
    model = dict(filter_name=filter_name, j_max=j_max)
    tables = monte_carlo_risk(truths, est, n_grid, 3, p, 17, threads=threads, **model)
    assert isinstance(tables, tuple) and len(tables) == len(truths)
    for truth, table in zip(truths, tables):
        (alone,) = monte_carlo_risk((truth,), est, n_grid, 3, p, 17, **model)
        assert isinstance(alone, RiskTable)
        assert table.rows == alone.rows and table.loss_p == alone.loss_p


def test_monte_carlo_risk_rejects_mixed_or_missing_truths():
    est = EstimatorSpec("threshold_hard")
    for truths in ((), (CoefficientTree.zeros(1, 3), CoefficientTree.zeros(2, 3))):
        with pytest.raises(ValueError, match="one dimension"):
            monte_carlo_risk(truths, est, [64, 128], 2, 2.0, 1)


@pytest.mark.parametrize("kind", [k for k, e in ESTIMATOR_KINDS.items() if e.model == "sequence"])
@pytest.mark.parametrize("fixed_m_n", [0.0, 1.0, 2.0, 7.5, None])
def test_read_depth_observation_gives_the_full_depth_estimate(kind, fixed_m_n):
    truth, top = shell_tree(2, 2, 1, 10, 8.0, dither=2.0), 10
    est = EstimatorSpec(kind, smoothness=DENSE, fixed_m_n=fixed_m_n)
    for n in (4, 64, 1000, 4096, 65536, 2**20):
        seed = np.random.SeedSequence((3, n))
        read, estimate = ESTIMATOR_KINDS[kind].rule(est, n)
        assert read >= 0
        full = estimate(simulate_sequence(truth, n, top, seed).y)
        short = estimate(simulate_sequence(truth, n, min(read, top), seed).y)
        assert max(full.levels, default=-1) <= read and max(short.levels, default=-1) <= read
        assert short.scaling == full.scaling
        assert short.levels.keys() == full.levels.keys()
        for j, level in full.levels.items():
            assert np.array_equal(short.levels[j], level)


def test_energy_loss_is_the_difference_energy_bit_for_bit():
    rng = np.random.default_rng(8)
    noisy = lambda j, scale=1.0: scale * rng.standard_normal(1 << j)
    truths = [
        shell_tree(2, 2, 1, 9, 3.0, dither=2.0),
        shell_tree(2, 2, 1, 9, 3.0, j_min=4),  # levels 0..3 missing
        CoefficientTree(1, 7, 0.25, {1: noisy(1), 6: noisy(6)}),
        CoefficientTree.zeros(1, 5),
    ]
    estimates = [
        CoefficientTree(1, 5, 0.3, {j: noisy(j, 0.1) for j in range(6)}),
        CoefficientTree(1, 5, -0.1, {j: np.zeros(1 << j) for j in range(6)}),  # all zero
        CoefficientTree(1, 3, 0.0, {0: noisy(0), 2: np.zeros(4)}),
        CoefficientTree.zeros(1, 2),  # no level
        CoefficientTree(1, 12, 1e-3, {11: noisy(11, 1e-4)}),  # a level the truths lack
    ]
    for truth in truths:
        energies = _level_energies(truth)
        for estimate in estimates:
            want = (estimate - truth).total_energy()
            assert _energy_loss(estimate, truth, energies) == want
    square = lambda js: {j: rng.standard_normal((1 << j, 1 << j)) for j in js}
    truth2 = CoefficientTree(2, 4, 0.5, square((1, 3)))
    estimate2 = CoefficientTree(2, 2, 0.4, square((0, 1)))
    assert (_energy_loss(estimate2, truth2, _level_energies(truth2))
            == (estimate2 - truth2).total_energy())
