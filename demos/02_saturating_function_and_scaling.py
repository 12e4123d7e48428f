"""The saturating function: its coefficients, Besov norms, and scaling function.

The construction assigns every dyadic position a coefficient built from the
smoothness envelope, an irreducible-fraction weight, and a polynomial-in-j
damping.  Its scaling function (the best smoothness as a function of the
measuring exponent p) follows the generic two-branch formula: flat at s up to
p = r, then bending down as d/p + s - d/r.
"""

import numpy as np

from waverates import (
    GenericFunctionSpec,
    besov_norm,
    build_g,
    empirical_scaling,
    g_term,
    theoretical_scaling,
    weak_exclusion_witness,
)

spec = GenericFunctionSpec(s=2, r=2, d=1, j_max=14)
g = build_g(spec)

print("damping exponent a = 1 + 3/r =", g_term(spec.r).damping)
print("coefficient at (j=1, k=1):", g.get(1, 1), "= 2^-2.5")
print("coefficient at (j=4, k=0):", g.get(4, 0), "= 2^-13 (fully reducible position)")
print("smoothness-ball norm:", besov_norm(g, 2, 2))

print("\nscaling function: empirical slope fit vs the generic formula")
for p in (1.0, 1.5, 2.0, 3.0, 4.0):
    est = empirical_scaling(g, p, (4, 14))
    theory = theoretical_scaling(2, 2, p, 1)
    print(f"  p={p:3.1f}: estimate={est.estimate:.4f}  theory={theory:.4f}  "
          f"residual={est.residual:.2e}")

print("\nweak-functional exclusion: the lower bound grows like 2^(eps*p*t)")
witness = weak_exclusion_witness(2, 2, 2, 1, eps=0.1, t_max=30)
ts = np.array([t for t, _ in witness[9:]])
lb = np.log2([b for _, b in witness[9:]])
slope = np.polyfit(ts, lb, 1)[0]
print(f"  fitted log2 slope over t in 10..30: {slope:.4f} (eps * p = 0.2)")
