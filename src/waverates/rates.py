"""Theoretical convergence rates and the Monte Carlo risk engine.

The closed-form rate formulas return the polynomial exponent alpha together
with its regime (dense or sparse branch, and whether the rate is polynomial
in n or in n / log n).  The risk engine estimates E ||estimate - truth||_p^p
over replicated simulations in the observation model that the estimator
kind fixes (Gaussian sequence or density sample; either way the estimate
maps an observed coefficient tree to a tree), and the slope fitter regresses
log risk on the log of the normalization to recover the empirical exponent;
the asymptotic "same rate" relation only constrains the ratio of logs, so an
ordinary least-squares slope in log-log coordinates is its finite-sample
proxy.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

from .dyadic import CoefficientTree
from .estimators import (
    choose_mn,
    density_threshold_estimate,
    linear_estimate,
    noise_depth,
    pinsker_weights,
    projection_weights,
    threshold_estimate,
)
from .models import DensitySampler, empirical_coefficients, observe, simulate_sequence
from .spaces import SmoothnessParams
from .wavelet import GridSignal, get_filter, lp_mean, synthesize

__all__ = [
    "RateRegime",
    "RiskRow",
    "RiskTable",
    "SlopeFit",
    "EstimatorKind",
    "EstimatorSpec",
    "ESTIMATOR_KINDS",
    "minimax_rate",
    "generic_alpha",
    "monte_carlo_risk",
    "fit_slope",
]

RISK_FLOOR = 1e-300
SYNTHESIS_PAD = 6


@dataclass(frozen=True)
class RateRegime:
    """A classified rate: family, branch, exponent and normalization."""

    family: str
    branch: str
    alpha: float
    normalization: str

    def __post_init__(self):
        if self.branch not in ("dense", "sparse"):
            raise ValueError(f"branch must be 'dense' or 'sparse', got {self.branch!r}")
        if self.normalization not in ("n", "n_over_log_n"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2], got {self.alpha}")

    @property
    def alpha_tilde(self) -> float:
        """The square-root-normalized exponent, exactly twice alpha."""
        return 2.0 * self.alpha


def _norm_value(normalization: str, n: int) -> float:
    if normalization == "n":
        return float(n)
    if n < 2:
        raise ValueError("n must be >= 2 for the n / log n normalization")
    return n / math.log(n)


def minimax_rate(params: SmoothnessParams, n: int) -> tuple[RateRegime, float]:
    """Minimax rate over a smoothness ball: regime and its numeric value at n.

    generic_alpha("threshold")'s exponent and branch, relabelled "minimax":
    n^{-p alpha} on the dense branch, (n / log n)^{-p alpha} on the sparse one.
    """
    regime = generic_alpha("threshold", params)
    regime = replace(regime, family="minimax",
                     normalization="n" if regime.branch == "dense" else "n_over_log_n")
    return regime, _norm_value(regime.normalization, n) ** (-params.p * regime.alpha)


_GENERIC_FAMILIES = {
    "linear": ("generic_linear", "n"),
    "limited": ("limited_lower", "n"),
    "threshold": ("generic_threshold", "n_over_log_n"),
    "elitist": ("elitist_lower", "n_over_log_n"),
}


def generic_alpha(family: str, params: SmoothnessParams) -> RateRegime:
    """Generic (prevalent) rate exponent for an estimator family.

    linear/limited: alpha = s / (2s + d) when r >= p, else s' / (2 s' + d)
    with s' = s - d/r + d/p, polynomial in n.  threshold/elitist:
    alpha = s / (2s + d) when r > p d / (2 s + d), else
    (s - d/r + d/p) / (2 (s - d/r) + d), polynomial in n / log n.
    """
    if family not in _GENERIC_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_GENERIC_FAMILIES)}")
    name, normalization = _GENERIC_FAMILIES[family]
    s, r, p, d = params.s, params.r, params.p, params.d
    if family in ("linear", "limited"):
        if r >= p:
            branch, alpha = "dense", s / (2.0 * s + d)
        else:
            sp = s - d / r + d / p
            branch, alpha = "sparse", sp / (2.0 * sp + d)
    else:
        if r > p * d / (2.0 * s + d):
            branch, alpha = "dense", s / (2.0 * s + d)
        else:
            branch, alpha = "sparse", (s - d / r + d / p) / (2.0 * (s - d / r) + d)
    return RateRegime(name, branch, alpha, normalization)


# -- Monte Carlo risk ---------------------------------------------------------


@dataclass(frozen=True)
class RiskRow:
    n: int
    empirical_risk: float
    std_error: float
    replicates: int


@dataclass(frozen=True)
class RiskTable:
    """Empirical risks over an increasing n-grid for one estimator and truth."""

    rows: tuple[RiskRow, ...]
    loss_p: float

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        ns = [row.n for row in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n must be strictly increasing across rows")
        for row in self.rows:
            if row.empirical_risk < 0 or row.std_error < 0:
                raise ValueError("risks and standard errors must be non-negative")

    @property
    def risks(self) -> np.ndarray:
        return np.array([row.empirical_risk for row in self.rows])


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    normalization: str
    implied_alpha: float

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator selection for the risk engine.

    kind is a key of ESTIMATOR_KINDS, which gives its model, family and the
    parameters it reads.  The linear kinds derive their cutoff from choose_mn
    at the given smoothness, or use fixed_m_n (finite, >= 0; m_n <= 1 keeps
    no level); the sequence thresholds use kappa.  kappa and pinsker_order
    must be numbers, finite and > 0.
    """

    kind: str
    smoothness: SmoothnessParams | None = None
    kappa: float = 2.0
    pinsker_order: float = 2.0
    fixed_m_n: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        for name, value in (("kappa", self.kappa), ("pinsker_order", self.pinsker_order)):
            if not (isinstance(value, Real) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        m_n = self.fixed_m_n
        if m_n is not None and not (isinstance(m_n, Real) and 0.0 <= m_n < math.inf):
            raise ValueError(f"fixed_m_n must be a finite number >= 0, got {m_n!r}")
        if self.family == "linear" and self.smoothness is None and self.fixed_m_n is None:
            raise ValueError(f"estimator {self.kind!r} needs smoothness parameters or fixed_m_n")

    def cutoff(self, n: int) -> float:
        """The m_n in force at sample size n (fixed override or choose_mn)."""
        if self.fixed_m_n is not None:
            return self.fixed_m_n
        return choose_mn(self.smoothness, n)

    @property
    def model(self) -> str:
        return ESTIMATOR_KINDS[self.kind].model

    @property
    def family(self) -> str:
        return ESTIMATOR_KINDS[self.kind].family


def _level_energies(tree: CoefficientTree) -> dict:
    """Energy of each level the tree holds, summed as total_energy sums it."""
    return {j: np.sum(a * a) for j, a in tree.levels.items()}


def _energy_loss(estimate: CoefficientTree, truth: CoefficientTree, truth_energy) -> float:
    """(estimate - truth).total_energy(), bit for bit, with truth_energy[j] the
    energy of the truth's level j standing in for each level the estimate does
    not hold (0 - t is -t exactly).  The levels are summed in the order and the
    way CoefficientTree's subtraction and total_energy sum them."""
    parts = []
    for j in set(estimate.levels) | set(truth.levels):
        e, t = estimate.levels.get(j), truth.levels.get(j)
        if e is None:
            parts.append(truth_energy[j])
        else:
            diff = e if t is None else e - t
            parts.append(np.sum(diff * diff))
    return (estimate.scaling - truth.scaling) ** 2 + float(sum(parts))


def _coarse_resolution(truth: CoefficientTree, depth: int) -> int:
    """Resolution of the samples the p != 2 loss refines: one above the
    deeper of the model depth and the truth's."""
    return max(depth, truth.j_max) + 1


def _truth_side(truth: CoefficientTree, depths, p: float, filt) -> dict:
    """What the loss needs of a truth, computed once before any replicate:
    its level energies for p = 2, else its grid samples at the coarse
    resolution of each model depth in depths."""
    if p == 2.0:
        return _level_energies(truth)
    return {res: synthesize(truth, filt, res).samples
            for res in {_coarse_resolution(truth, depth) for depth in depths}}


def _loss(estimate, truth, truth_side, p, filt, depth) -> float:
    """||estimate - truth||_p^p: the coefficient energy for p = 2, else grid
    quadrature of the difference.  The quadrature runs on the difference's
    samples at resolution max(depth, truth depth) + 1, refined by
    SYNTHESIS_PAD - 1 zero-detail steps (lp_mean): the estimate is
    synthesized there, its inverse steps stopping at the depth it holds, and
    the truth's samples, computed once per depth (_truth_side), are
    subtracted."""
    if p == 2.0:
        return _energy_loss(estimate, truth, truth_side)
    res = _coarse_resolution(truth, depth)
    diff = synthesize(estimate, filt, res).samples - truth_side[res]
    return lp_mean(GridSignal(res, diff), filt, res + SYNTHESIS_PAD - 1, p)


def _projection(spec, n):
    weights = projection_weights(spec.cutoff(n))
    return max(weights, default=0), lambda y: linear_estimate(y, weights)


def _pinsker(spec, n):
    weights = pinsker_weights(math.log2(max(spec.cutoff(n), 1.0)), spec.pinsker_order)
    return max(weights, default=0), lambda y: linear_estimate(y, weights)


def _threshold(mode, spec, n):
    return noise_depth(n), lambda y: threshold_estimate(y, n, spec.kappa, mode)


def _density_threshold(spec, n):
    return noise_depth(n), lambda beta_hat: density_threshold_estimate(beta_hat, n)


class EstimatorKind(NamedTuple):
    """An estimator kind: the observation model the risk engine draws for it
    ("sequence" or "density"), its rate family, rule(spec, n) -> (read_depth,
    estimate), where estimate maps an observed coefficient tree to the
    estimate tree and read_depth >= 0 is the deepest level it reads (the
    estimate holds no deeper level), and params, the EstimatorSpec parameters
    besides kind and smoothness that it reads.  The rules look the estimators
    up when called, so a wrapped estimator is the one that runs."""

    model: str
    family: str
    rule: Callable
    params: tuple[str, ...]


ESTIMATOR_KINDS = {
    "projection": EstimatorKind("sequence", "linear", _projection, ("fixed_m_n",)),
    "pinsker": EstimatorKind("sequence", "linear", _pinsker, ("fixed_m_n", "pinsker_order")),
    "threshold_hard": EstimatorKind("sequence", "threshold", partial(_threshold, "hard"),
                                    ("kappa",)),
    "threshold_soft": EstimatorKind("sequence", "threshold", partial(_threshold, "soft"),
                                    ("kappa",)),
    "density_linear": EstimatorKind("density", "linear", _projection, ("fixed_m_n",)),
    "density_threshold": EstimatorKind("density", "threshold", _density_threshold, ()),
}


def _model_depth(truth, read, j_max, density) -> int:
    """The model's depth: j_max when given, else the estimator's read depth
    for density coefficients and the truth's depth for sequence observations."""
    return j_max if j_max is not None else read if density else truth.j_max


def _one_replicate(truths, truth_sides, rule, n, p, filt, j_max, seed, samplers):
    """The loss of every truth's estimate on the replicate drawn from seed,
    rule being the estimator kind's (read depth, estimate) at n.

    Sequence truths share one noise draw, to the deepest depth any of them
    reads, and each adds its own levels to it; each density truth samples its
    own law from the same seed.
    """
    read, estimate = rule
    density = samplers is not None
    depths = [_model_depth(truth, read, j_max, density) for truth in truths]
    reads = [min(read, depth) for depth in depths]
    if density:
        observed = [empirical_coefficients(sampler.sample(n, seed), filt, j)
                    for sampler, j in zip(samplers, reads)]
    else:
        top = max(reads)
        noise = simulate_sequence(CoefficientTree.zeros(truths[0].d, top), n, top, seed)
        observed = [observe(truth, noise, j) for truth, j in zip(truths, reads)]
    return [_loss(estimate(y), truth, side, p, filt, depth)
            for y, truth, side, depth in zip(observed, truths, truth_sides, depths)]


def monte_carlo_risk(
    truths: tuple[CoefficientTree, ...],
    estimator: EstimatorSpec,
    n_grid,
    R: int,
    p: float,
    master_seed: int,
    *,
    filter_name: str = "db2",
    j_max: int | None = None,
    threads: int = 1,
) -> tuple[RiskTable, ...]:
    """Empirical risk E ||estimate - truth||_p^p of each truth over an
    increasing n-grid, one RiskTable per truth.

    The estimator's kind fixes the observation model: Gaussian sequence
    observations of the truth, or empirical coefficients of a sample from
    the density the truth specifies.  filter_name is the wavelet of the
    density model and of the p != 2 loss quadrature.  j_max fixes the
    model's depth; when omitted, sequence observations have the truth's depth
    and density coefficients the estimator's read depth.  The kind's rule
    gives the read depth and the estimate at each n, once per n; each
    replicate is observed only up to that depth within the model's depth: no
    estimator reads a deeper level, and its estimate is that of the
    model-depth observation.

    Each of the R replicates at each n simulates, estimates and evaluates the
    loss with a seed derived from (master_seed, n, replicate), so the tables
    are bit-identical across reruns and independent of scheduling; replicates
    may evaluate on a thread pool, the reduction order is fixed.  The density
    model builds one DensitySampler per truth, shared by all replicates,
    and the truth's side of the loss (_truth_side) is computed once per truth
    before the replicates start.

    The truths (of one dimension) do not enter the seed, so every truth is
    observed under the same noise (common random numbers), which each
    replicate draws once, and each table equals that of the truth alone.
    """
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or not n_grid:
        raise ValueError("n_grid must be nonempty and strictly increasing")
    if R < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    if not truths or len({t.d for t in truths}) != 1:
        raise ValueError("need at least one truth, all of one dimension")
    filt = get_filter(filter_name)
    density = estimator.model == "density"
    samplers = [DensitySampler.from_tree(t, filt) for t in truths] if density else None
    rules = [ESTIMATOR_KINDS[estimator.kind].rule(estimator, n) for n in n_grid]
    truth_sides = [_truth_side(t, [_model_depth(t, read, j_max, density) for read, _ in rules],
                               p, filt) for t in truths]
    losses = np.empty((len(truths), len(n_grid), R))

    def task(i_rep):
        i, rep = i_rep
        n = n_grid[i]
        seed = np.random.SeedSequence((master_seed, n, rep))
        return i, rep, _one_replicate(truths, truth_sides, rules[i], n, p, filt, j_max, seed,
                                      samplers)

    jobs = [(i, rep) for i in range(len(n_grid)) for rep in range(R)]
    with ThreadPoolExecutor(max_workers=threads) as pool:  # starts no thread at 1
        for i, rep, values in (pool.map if threads > 1 else map)(task, jobs):
            losses[:, i, rep] = values

    return tuple(
        RiskTable(rows=tuple(
            RiskRow(
                n=n,
                empirical_risk=float(np.mean(per_truth[i])),
                std_error=float(np.std(per_truth[i], ddof=1) / math.sqrt(R)),
                replicates=R,
            )
            for i, n in enumerate(n_grid)
        ), loss_p=p)
        for per_truth in losses
    )


def fit_slope(table: RiskTable, normalization: str) -> SlopeFit:
    """OLS of log risk on the log of n (or n / log n); implied_alpha = -slope / p."""
    if len(table.rows) < 4:
        raise ValueError("need at least 4 rows to fit a slope")
    x = np.array([math.log(_norm_value(normalization, row.n)) for row in table.rows])
    risks = table.risks
    if np.any(risks <= 0.0):
        warnings.warn("non-positive risks clipped before log-log fit", stacklevel=2)
        risks = np.maximum(risks, RISK_FLOOR)
    y = np.log(risks)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    sse = float(np.sum((y - fitted) ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if sst == 0.0 else max(0.0, 1.0 - sse / sst)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=min(r_squared, 1.0),
        normalization=normalization,
        implied_alpha=float(-slope / table.loss_p),
    )
