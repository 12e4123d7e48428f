"""Wavelet shrinkage estimators, Besov-scale functionals, and Monte Carlo
verification that their generic convergence rates match the minimax exponents.

The package is organized around a single data structure, the dyadic
``CoefficientTree``: truths, observations and estimates all live in it.
``wavelet`` moves between trees and grid functions on [0, 1] and owns the
risk engine's L^p loss; ``spaces`` measures trees (Besov norms and scaling
functions); ``generic`` builds the explicit saturating function; ``truths``
builds the experiments' truths; ``models`` simulates observations;
``estimators`` maps observed coefficient trees to estimates; ``rates`` holds
the closed-form exponents and the risk engine, whose caller names the model;
``cli`` orchestrates reproducible experiments from JSON configs.
"""

from .dyadic import CoefficientTree
from .estimators import (
    linear_estimate,
    linear_weights,
    noise_depth,
    threshold_estimate,
    universal_threshold,
)
from .generic import GenericFunctionSpec, build_g, g_term, weak_exclusion_witness
from .models import (
    DensitySample,
    DensitySampler,
    empirical_coefficients,
    simulate_sequence,
)
from .rates import (
    EstimatorSpec,
    RateRegime,
    RiskRow,
    RiskTable,
    SlopeFit,
    fit_slope,
    generic_alpha,
    minimax_rate,
    monte_carlo_risk,
)
from .spaces import (
    ScalingFunctionEstimate,
    SmoothnessParams,
    besov_norm,
    empirical_scaling,
    theoretical_scaling,
)
from .truths import (
    ShellTerm,
    bump_tree,
    density_truth_tree,
    shell_sum,
    shell_tree,
)
from .wavelet import (
    GridSignal,
    WaveletFilter,
    analyze,
    get_filter,
    lp_mean,
    lp_norm,
    synthesize,
)

__version__ = "0.1.0"
