"""Monte Carlo risk of thresholding vs projection in the sequence model.

Observes y = theta + noise/sqrt(n) at every dyadic index, estimates with the
universal hard threshold and with the bias-variance-tuned projection, and
fits log risk against the log of the rate normalization.  In the dense
regime (r >= p) both families share the exponent s/(2s+d); in the sparse
regime (p > r) thresholding provably beats every linear rule, and the fitted
slopes show the gap at simulation scale.
"""

from waverates import (
    EstimatorSpec,
    ShellTerm,
    SmoothnessParams,
    fit_slope,
    g_term,
    generic_alpha,
    monte_carlo_risk,
    noise_depth,
    shell_sum,
    simulate_sequence,
    threshold_estimate,
    universal_threshold,
)

N_GRID = [2**j for j in range(10, 17)]


def experiment(name, params, truth, estimator):
    regime = generic_alpha(estimator.family, params)
    # monte_carlo_risk's default model: these are sequence observations
    (table,) = monte_carlo_risk((truth,), estimator, N_GRID, 24, params.p,
                                master_seed=2024, threads=4)
    fit = fit_slope(table, regime.normalization)
    print(f"{name}: implied alpha {fit.implied_alpha:.4f} "
          f"(theory {regime.alpha:.4f}, {regime.branch} branch, "
          f"x = {regime.normalization}, r^2 = {fit.r_squared:.4f})")
    return table


print("dense regime: s=2, r=2, p=2")
dense = SmoothnessParams(s=2, r=2, p=2, d=1)
truth = shell_sum(2, 2, 14, [g_term(2, 0.7), ShellTerm(1024.0, dither=2.0)])  # 0.7 g + shell
table = experiment("  hard threshold", dense, truth, EstimatorSpec("threshold_hard", kappa=2.0))
experiment("  projection     ", dense, truth, EstimatorSpec("projection", smoothness=dense))
print("  (the projection run is bias-dominated at this amplitude and short grid, so its")
print("   finite-scale slope overshoots; the theory value is a floor, not a match target)")

print("\nrisk table (hard threshold):")
print("  n        risk          std_error")
for row in table.rows:
    print(f"  {row.n:<8d} {row.empirical_risk:<13.6g} {row.std_error:.2g}")

print("\none replicate by hand: two truths observed under one noise draw (common")
print("random numbers: the same seed gives the same noise); monte_carlo_risk runs")
print("these steps on a stack of replicates, but under a threshold it draws noise of")
print("the same law in another order, and only where a coefficient can be kept, so")
print("its replicates are not simulate_sequence's")
n, depth = 4096, noise_depth(4096)
shell = shell_sum(2, 2, 14, [ShellTerm(1024.0, dither=2.0)])
for name, theta in (("0.7 g + shell", truth), ("shell alone  ", shell)):
    lam = 2.0 * universal_threshold(n)  # kappa = 2
    estimate = threshold_estimate(simulate_sequence(theta, n, depth, seed=7), lam, depth)
    print(f"  {name}: squared error {(estimate - theta).total_energy():.6g}")

print("\nsparse regime: s=1.2, r=1, p=4 (thresholding beats linear)")
sparse = SmoothnessParams(s=1.2, r=1, p=4, d=1)
truth = shell_sum(1.2, 1, 12, [g_term(1, 0.7), ShellTerm(2.0, dither=2.0)])
experiment("  hard threshold", sparse, truth, EstimatorSpec("threshold_hard", kappa=2.0))
experiment("  projection     ", sparse, truth, EstimatorSpec("projection", smoothness=sparse))
