"""Density estimation: sampling, empirical coefficients, thresholding.

Draws i.i.d. points from a wavelet-specified density, recovers coefficients
by averaging the periodized wavelet over the sample, thresholds them at
sqrt(log n / n), and compares the estimate's coefficients with the truth.
The empirical coefficients form a tree like a sequence observation's, so the
sequence model's projection rule applies to them unchanged.
"""

import numpy as np

from waverates import (
    density_threshold_estimate,
    density_truth_tree,
    empirical_coefficients,
    get_filter,
    linear_estimate,
    projection_weights,
    sample_density,
    shell_tree,
    synthesize,
)
from waverates.estimators import noise_depth, universal_threshold

filt = get_filter("db2")
truth = density_truth_tree(shell_tree(2, 2, 1, 10, amplitude=1.0, dither=2.0, j_min=2))
grid = synthesize(truth, filt, 16).samples
print(f"truth density range: [{grid.min():.3f}, {grid.max():.3f}] (mean {grid.mean():.3f})")

n = 4096
sample = sample_density(truth, filt, n, seed=7)
print(f"drew {n} points; first five:", np.round(sample.points[:5], 4))

beta = empirical_coefficients(sample, filt, j_max=noise_depth(n))
estimate = density_threshold_estimate(beta, n)
kept = sum(int(np.count_nonzero(a)) for a in estimate.levels.values())
total = sum(a.size for a in beta.levels.values())
print(f"threshold sqrt(log n / n) = {universal_threshold(n):.4f} up to level {noise_depth(n)}")
print(f"kept {kept} of {total} empirical coefficients")

err = estimate - truth
print(f"coefficient-space squared error: {err.total_energy():.5f}")
print(f"trivial estimate (uniform) squared error: {truth.wavelet_energy():.5f}")
projection = linear_estimate(beta, projection_weights(16.0))
print(f"projection onto levels 2^j < 16 squared error: {(projection - truth).total_energy():.5f}")

print("\nper-level recovered coefficient counts:")
for j in sorted(estimate.levels):
    a = estimate.levels[j]
    print(f"  level {j}: kept {np.count_nonzero(a):3d} / {a.size:<5d} "
          f"largest |beta| = {np.max(np.abs(a)):.4f}")
