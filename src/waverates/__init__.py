"""Wavelet shrinkage estimators, Besov-scale functionals, and Monte Carlo
verification that their generic convergence rates match the minimax exponents.

The package is organized around a single data structure, the dyadic
``CoefficientTree``: truths, observations and estimates all live in it.
``wavelet`` moves between trees and grid functions on [0, 1]; ``spaces``
measures trees (Besov norms, weak functionals, scaling functions);
``generic`` builds the explicit saturating function; ``truths`` builds the
experiments' truths; ``models`` simulates observations; ``estimators`` maps
observed coefficient trees to estimates; ``rates`` holds the closed-form
exponents and the risk engine, whose estimator kinds fix the model;
``cli`` orchestrates reproducible experiments from JSON configs.
"""

from .dyadic import CoefficientTree, LevelIndex, level_count, reduce_dyadic
from .estimators import (
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
from .generic import GenericFunctionSpec, build_g, weak_exclusion_witness
from .models import (
    DensitySample,
    DensitySampler,
    SequenceObservation,
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
    WeakBesovParams,
    besov_norm,
    empirical_scaling,
    theoretical_scaling,
    weak_besov_functional,
)
from .truths import (
    bump_tree,
    density_truth_tree,
    probe_line_truth,
    shell_tree,
    uniform_density_tree,
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
