"""Theoretical convergence rates and the Monte Carlo risk engine.

The closed-form rate formulas return the polynomial exponent alpha together
with its regime (dense or sparse branch, and whether the rate is polynomial
in n or in n / log n).  The risk engine estimates E ||estimate - truth||_p^p
over replicated simulations in the observation model its caller names
(Gaussian sequence or density sample; either way the estimate maps an
observed coefficient tree to a tree), and the slope fitter regresses
log risk on the log of the normalization to recover the empirical exponent;
the asymptotic "same rate" relation only constrains the ratio of logs, so an
ordinary least-squares slope in log-log coordinates is its finite-sample
proxy.  The records the library computes (RateRegime, RiskRow, SlopeFit)
are NamedTuples; RiskTable checks its rows, which report also reads back
from disk, and EstimatorSpec its parameters, which configs set.

The loss itself is wavelet's: wavelet._loss_sides gives, once per truth and
depth before any replicate, an object whose .mean(estimates) is the loss of
each row of a stack of estimates.  _plan builds, once per n, the estimate
and each truth's observed depth (the CLI's build, which validate runs too,
builds it); its execution takes each truth's side of the loss, and a block
of replicates of one n, one stack row per replicate, is observed, estimated
and scored by .mean in one call per step.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import traceback
import warnings
from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

from .dyadic import MAX_DEPTH, CoefficientTree
from .estimators import (_linear_stack, _threshold_stack, linear_weights, noise_depth,
                         universal_threshold)
from .models import DensitySampler, _noise, _observed, _sampled_stack, _ThresholdNoise
from .spaces import SmoothnessParams, theoretical_scaling
from .wavelet import _BLOCK_SAMPLES, WaveletFilter, _loss_bound, _loss_sides, get_filter

__all__ = [
    "RateRegime",
    "RiskRow",
    "RiskTable",
    "SlopeFit",
    "EstimatorKind",
    "EstimatorSpec",
    "ESTIMATOR_KINDS",
    "MIN_FIT_ROWS",
    "minimax_rate",
    "generic_alpha",
    "monte_carlo_risk",
    "fit_slope",
]

RISK_FLOOR = 1e-300
MIN_FIT_ROWS = 4  # the fewest risks fit_slope fits a slope to


class RateRegime(NamedTuple):
    """A classified rate: family, branch ("dense" or "sparse"), exponent
    alpha in (0, 1/2] and normalization ("n" or "n_over_log_n")."""

    family: str
    branch: str
    alpha: float
    normalization: str

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
    regime = regime._replace(family="minimax",
                             normalization="n" if regime.branch == "dense" else "n_over_log_n")
    return regime, _norm_value(regime.normalization, n) ** (-params.p * regime.alpha)


_GENERIC_FAMILIES = {
    "linear": ("generic_linear", "n"),
    "threshold": ("generic_threshold", "n_over_log_n"),
}


def generic_alpha(family: str, params: SmoothnessParams) -> RateRegime:
    """Generic (prevalent) rate exponent for an estimator family.

    linear: alpha = s / (2s + d) when r >= p, else s' / (2 s' + d) with
    s' = s - d/r + d/p, polynomial in n.  threshold: alpha = s / (2s + d)
    when r > p d / (2 s + d), else (s - d/r + d/p) / (2 (s - d/r) + d),
    polynomial in n / log n.
    """
    if family not in _GENERIC_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_GENERIC_FAMILIES)}")
    name, normalization = _GENERIC_FAMILIES[family]
    s, r, p, d = params.s, params.r, params.p, params.d
    linear_branch, sp = _linear_smoothness(params)
    if family == "linear":
        branch, alpha = linear_branch, sp / (2.0 * sp + d)
    elif r > p * d / (2.0 * s + d):
        branch, alpha = "dense", s / (2.0 * s + d)
    else:  # here r < p, so sp is s - d/r + d/p
        branch, alpha = "sparse", sp / (2.0 * (s - d / r) + d)
    return RateRegime(name, branch, alpha, normalization)


def _linear_smoothness(params: SmoothnessParams) -> tuple[str, float]:
    """The linear family's branch, "dense" when r >= p, else "sparse", and its
    smoothness s', the generic scaling function theoretical_scaling(s, r, p, d)."""
    s, r, p, d = params.s, params.r, params.p, params.d
    return "dense" if r >= p else "sparse", theoretical_scaling(s, r, p, d)


# -- Monte Carlo risk ---------------------------------------------------------


class RiskRow(NamedTuple):
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
        for row in self.rows:  # NaN fails both comparisons
            if not (0 <= row.empirical_risk < math.inf and 0 <= row.std_error < math.inf):
                raise ValueError("risks and standard errors must be finite and non-negative")

    @property
    def risks(self) -> np.ndarray:
        return np.array([row.empirical_risk for row in self.rows])


class SlopeFit(NamedTuple):
    """fit_slope's result; r_squared lies in [0, 1]."""

    slope: float
    intercept: float
    r_squared: float
    normalization: str
    implied_alpha: float


def _number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator selection for the risk engine.

    kind is a key of ESTIMATOR_KINDS, which gives its family, rule and the
    parameters it reads.  The linear kinds weigh the levels below their
    cutoff m_n (see cutoff; m_n <= 1 keeps no level), pinsker with weights of
    order pinsker_order; threshold_hard and threshold_soft use kappa.  kappa and
    pinsker_order must be numbers, finite and > 0; fixed_m_n a number in
    [0, 2^(MAX_DEPTH + 1)], as a larger cutoff adds only levels no tree holds.
    A bool is not a number here: True would pass as 1.
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
            if not (_number(value) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        m_n, top = self.fixed_m_n, 2.0 ** (MAX_DEPTH + 1)
        if m_n is not None and not (_number(m_n) and 0.0 <= m_n <= top):
            raise ValueError(f"fixed_m_n must be a finite number in [0, 2^{MAX_DEPTH + 1}], "
                             f"got {m_n!r}")
        if self.family == "linear" and self.smoothness is None and self.fixed_m_n is None:
            raise ValueError(f"estimator {self.kind!r} needs smoothness parameters or fixed_m_n")

    def cutoff(self, n: int) -> float:
        """The m_n in force at sample size n: fixed_m_n when given, else the
        bias-variance cutoff n^{1 / (2 s' + d)} with the s' of
        generic_alpha("linear")."""
        if self.fixed_m_n is not None:
            return self.fixed_m_n
        _, sp = _linear_smoothness(self.smoothness)
        return float(n) ** (1.0 / (2.0 * sp + self.smoothness.d))

    @property
    def family(self) -> str:
        return ESTIMATOR_KINDS[self.kind].family


def _linear(order, spec, n):
    weights = linear_weights(spec.cutoff(n), order)
    return max(weights, default=0), lambda y: _linear_stack(y, weights), None


def _threshold(mode, kappa, n):
    depth, lam = noise_depth(n), kappa * universal_threshold(n)
    return depth, lambda y: _threshold_stack(y, lam, depth, mode), lam


class EstimatorKind(NamedTuple):
    """An estimator kind: its rate family, rule(spec, n) -> (read_depth,
    estimate, lam), where estimate maps the heap arrays of observed coefficient
    trees, one per row of a stack (or a single one), to the estimates'
    arrays (an estimators stack kernel), read_depth >= 0 is the deepest
    level it reads (no estimate holds a deeper level) and lam is a threshold
    rule's threshold, None for a linear rule: a threshold estimate keeps no
    coefficient of magnitude below lam, hard keeping |y| >= lam and soft
    |y| > lam, which lets the sequence engine leave undrawn the noise with
    which no observation can reach lam (_Replicates); and params, the
    EstimatorSpec parameters besides kind and smoothness that it reads.
    Each family has one rule:
    _linear(order, ...) (order math.inf is projection) and _threshold(mode,
    kappa, ...), the one place lam is computed; an entry passes the values
    its kind fixes and those it reads from the spec.  The rules look the
    estimators up when called, so a wrapped estimator is the one that runs.
    A rule maps noisy and empirical coefficients alike, so every kind runs
    under either observation model."""

    family: str
    rule: Callable
    params: tuple[str, ...]


ESTIMATOR_KINDS = {
    "projection": EstimatorKind("linear", lambda spec, n: _linear(math.inf, spec, n),
                                ("fixed_m_n",)),
    "pinsker": EstimatorKind("linear", lambda spec, n: _linear(spec.pinsker_order, spec, n),
                             ("fixed_m_n", "pinsker_order")),
    "threshold_hard": EstimatorKind("threshold",
                                    lambda spec, n: _threshold("hard", spec.kappa, n), ("kappa",)),
    "threshold_soft": EstimatorKind("threshold",
                                    lambda spec, n: _threshold("soft", spec.kappa, n), ("kappa",)),
    "density_threshold": EstimatorKind("threshold", lambda spec, n: _threshold("hard", 1.0, n), ()),
}


class _Replicates(NamedTuple):
    """What every replicate of one monte_carlo_risk call reads; called on a
    job (i, reps), a block of replicates of n = plans[i][0], it returns (i,
    reps, losses), losses[k, b] being the loss of truth k's estimate on the
    replicate drawn from the seed (master_seed, n, reps[b]), plans[i] being
    (n, the estimate, the threshold draw, each truth's observed depth, each
    truth's loss side).

    The block runs as one stack of len(reps) rows, row b that of replicate
    reps[b]: each step is one call for every row, and each row's losses are
    those of the replicate run alone, bit for bit.  Sequence truths share
    one noise stack, each row drawn from its own seed, and each truth adds
    its own levels to it; each density truth samples its own law from the
    same seeds, bins each sample alone and runs one analysis pyramid for the
    stack at its observed depth.  The truths are observed one at a time, as
    their losses are taken, so one observed stack is alive at a time.

    The noise is _noise's, to the deepest depth any truth reads, unless a
    threshold rule splits it (the threshold draw, a models._ThresholdNoise,
    None where it does not): then each row is as wide as it must be for no
    coefficient it leaves undrawn to be kept, and each truth is observed to
    the lesser of its depth and the stack's.  The estimate, which ends at
    the deepest level a row keeps, is the full observation's bit for bit,
    and the loss side stays the one planned for the full observed depth.  A
    block is sized for the rows' common width, so its stack holds at most
    _BLOCK_SAMPLES entries; each row that an exceedance widens runs alone, at
    its own width, and the block's other rows run as one stack.
    """

    truths: tuple[CoefficientTree, ...]
    plans: list[tuple]
    filt: WaveletFilter
    master_seed: int
    samplers: list[DensitySampler] | None

    def __call__(self, job):
        i, reps = job
        n, estimate, split, depths, sides = self.plans[i]
        seeds = [np.random.SeedSequence((self.master_seed, n, rep)) for rep in reps]
        if self.samplers is not None:
            observed = (_sampled_stack(sampler, n, seeds, self.filt, j)
                        for sampler, j in zip(self.samplers, depths))
            return i, reps, np.array([side.mean(estimate(y)) for y, side in zip(observed, sides)])
        if split is None:
            return i, reps, self._losses(_noise(n, max(depths), seeds), estimate, depths, sides)
        noise, wide = split.stack(seeds)
        if not wide:
            return i, reps, self._losses(noise, estimate, depths, sides)
        losses = np.empty((len(self.truths), len(noise)))
        narrow = [b for b in range(len(noise)) if b not in wide]  # a stack of no rows runs too
        losses[:, narrow] = self._losses(noise[narrow], estimate, depths, sides)
        for b, row in wide.items():
            losses[:, b] = self._losses(row[None], estimate, depths, sides)[:, 0]
        return i, reps, losses

    def _losses(self, noise: np.ndarray, estimate, depths, sides) -> np.ndarray:
        """Each truth's losses on a noise stack, observed to the lesser of its
        depth and the stack's."""
        top = noise.shape[-1].bit_length() - 2
        return np.array([side.mean(estimate(_observed(truth.coeffs, noise, min(j, top))))
                         for truth, j, side in zip(self.truths, depths, sides)])


def _level_peaks(truths, depth: int) -> np.ndarray:
    """The largest |theta| of any truth on each level 0..depth, 0 past their
    arrays' ends."""
    peaks = np.zeros(depth + 1)
    for truth in truths:
        for j, a in truth.levels.items():
            if j <= depth and a.size:
                peaks[j] = max(peaks[j], a.max(), -a.min())
    return peaks


def _estimate_sup(top: float, filt: WaveletFilter, depth: int, n: int, density: bool) -> float:
    """A bound of sup |estimate| at n, read to depth, of a truth of sup at most
    top, as wavelet._loss_bound bounds a tree's: |c_0| + sum_j 2^(j/2) 2 (L - 1)
    max_k |c_jk|.  Every rule shrinks its observation.  A sequence observation
    lies within 40 sd n^(-1/2) of theta: a standard normal passes 40 with
    probability below 1e-340; the threshold draw's normals below its split
    point t are standard normals with those past t rejected, and one past t
    (models._normal_tail) is at most sqrt(t^2 + 106 log 2) < 39.5, as one is
    drawn only where q = erfc(t / sqrt 2) > 0, which needs t < 38.51.  An
    empirical coefficient is a mean of psi_jk, at most 2^(j/2) 2, and its
    scaling coefficient 1."""
    width = 2.0 * (len(filt.taps) - 1)
    if density:
        return 1.0 + 2.0 * width * ((2 << depth) - 1)  # sum_j 2^(j/2) width 2^(j/2) 2
    levels = sum(2.0 ** (j / 2) for j in range(depth + 1))
    return top + 40.0 / math.sqrt(n) * (1.0 + width * levels)


class _Child:
    """A forked child that runs replicates on its share of the jobs and sends
    the runner, through its own pipe, one pickled pair: (None, results), or
    (the exception, its traceback text) when a job raised.  The child shares
    replicates by fork (its rules hold lambdas, which pickle cannot send)."""

    def __init__(self, replicates: _Replicates, share):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:  # the child: it leaves only through os._exit
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pipe.write(_outcome(replicates, share))
                status = 0
            finally:
                os._exit(status)
        os.close(write)  # before the next fork, so that no later child holds it open
        self.pipe = open(read, "rb")
        self.status = None  # the exit code, once reaped

    def results(self):
        """The share's results; reaps the child, and raises its exception, or
        ChildProcessError when it exited without sending one."""
        with self.pipe:
            sent = self.pipe.read()
        self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if self.status != 0:
            how = (f"was killed by signal {-self.status}" if self.status < 0
                   else f"exited with status {self.status}")
            raise ChildProcessError(f"replicate worker {self.pid} {how} before sending "
                                    "its results")
        failure, results = pickle.loads(sent)
        if failure is not None:
            error, text = failure
            raise error from ChildProcessError(f"in replicate worker {self.pid}:\n{text}")
        return results

    def stop(self) -> None:
        """Close the pipe, and kill and reap the child unless results did."""
        self.pipe.close()  # a child blocked writing to it gets EPIPE
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _outcome(replicates: _Replicates, share) -> bytes:
    """What a child sends: (None, replicates(job) for each job of its share),
    pickled, or (the exception, its traceback text) when one raised; an
    exception that does not survive pickling is sent as a RuntimeError naming it."""
    try:
        return pickle.dumps((None, [replicates(job) for job in share]))
    except Exception as error:
        text = traceback.format_exc()
        try:
            sent = pickle.dumps(((error, text), None))
            pickle.loads(sent)  # an exception whose __init__ takes other arguments fails here
            return sent
        except Exception:
            return pickle.dumps(((RuntimeError(f"{type(error).__name__}: {error}"), text), None))


def _shares(sizes, R: int, workers: int) -> list[list]:
    """Each worker's jobs: worker w takes the stride jobs[w::workers] of the
    (i, rep) jobs ordered by n, then replicate, which gives it within one
    replicate of an equal share of every n, in blocks (i, reps) of at most
    sizes[i] consecutive replicates of its share of n_grid[i]."""
    shares = []
    for w in range(workers):
        share = []
        for i, size in enumerate(sizes):
            reps = range((w - i * R) % workers, R, workers)  # job i R + rep is w mod workers
            share += [(i, reps[k : k + size]) for k in range(0, len(reps), size)]
        shares.append(share)
    return shares


def _replicate_results(replicates: _Replicates, shares):
    """replicates(job) for every job of shares, one share per worker process:
    this one runs shares[0] while a forked child runs each other share
    (_Child), whose results follow its own.  However the generator ends
    early (this process's share raising, a child's error, or close), every
    child still running is killed, and every child is reaped."""
    children = []
    try:
        for share in shares[1:]:
            children.append(_Child(replicates, share))
        yield from map(replicates, shares[0])
        for child in children:
            yield from child.results()
    finally:
        for child in children:
            child.stop()


MAX_ENTRIES = 1 << 27  # the most float64 entries (1 GiB) a run's losses or one draw may hold


def _plan(truths: tuple[CoefficientTree, ...], estimator: EstimatorSpec, n_grid, R: int,
          p: float, filter_name: str, model: str, *,
          naming: Callable = lambda key: contextlib.nullcontext()) -> Callable:
    """monte_carlo_risk's plan: each n's rule, each truth's observed depth at
    each n, the density model's one DensitySampler per truth and a threshold
    rule's draw at each n (models._ThresholdNoise); returns its execution,
    (master_seed, threads=1) -> the RiskTables, which takes the loss sides
    and runs.

    Refuses, inside naming(key), which names the config key (cli's _naming;
    by default none): a losses array of (truths, n, R) or a density sample
    larger than MAX_ENTRIES (replicates, n_grid), a lam that is not positive
    and finite (estimator_spec.kappa: kappa sqrt(log n / n) underflows for a
    kappa near the least double), a p != 2 loss whose bound overflows
    (smoothness.p, _estimate_sup), an n whose noise scale n^(-p/2) underflows
    (n_grid) and what DensitySampler.from_tree refuses (truth_spec)."""
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or not n_grid:
        raise ValueError("n_grid must be nonempty and strictly increasing")
    if R < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    if not truths:
        raise ValueError("need at least one truth")
    if model not in ("sequence", "density"):
        raise ValueError(f"model must be 'sequence' or 'density', got {model!r}")
    if len(truths) * len(n_grid) * R > MAX_ENTRIES:
        with naming("replicates"):
            raise ValueError(f"{len(truths)} x {len(n_grid)} x {R} losses (truths x n x "
                             f"replicates) exceed the {MAX_ENTRIES} a run may hold")
    filt = get_filter(filter_name)
    density = model == "density"
    rules = [ESTIMATOR_KINDS[estimator.kind].rule(estimator, n) for n in n_grid]
    for n, (_, _, lam) in zip(n_grid, rules):
        if lam is not None and not 0.0 < lam < math.inf:
            with naming("estimator_spec.kappa"):
                raise ValueError(f"the threshold at n = {n} is {lam!r}, not positive and finite")
    samplers = None
    if density:
        if n_grid[-1] > MAX_ENTRIES:
            with naming("n_grid"):
                raise ValueError(f"a density sample of n = {n_grid[-1]} draws exceeds the "
                                 f"{MAX_ENTRIES} a replicate may draw")
        with naming("truth_spec"):
            samplers = [DensitySampler.from_tree(t, filt) for t in truths]
    # per n, each truth's observed depth
    depths = [[read if density else min(read, t.j_max) for t in truths] for read, _, _ in rules]
    if p != 2:  # the loss is at most sup |estimate - truth|^p (p = 2's energy: cli bounds it)
        tops = [_loss_bound(t, filt, 1.0) for t in truths]  # sup |truth|
        for n, row in zip(n_grid, depths):
            for top, j in zip(tops, row):
                with np.errstate(over="ignore"):
                    bound = np.power(top + _estimate_sup(top, filt, j, n, density), p)
                if not np.isfinite(bound):
                    with naming("smoothness.p"):
                        raise ValueError(f"the loss bound of an estimate read to level {j} at "
                                         f"n = {n} overflows at p = {p:g}")
    if -p / 2 * math.log(n_grid[-1]) < math.log(np.finfo(float).tiny):  # a risk read as 0
        with naming("n_grid"):
            raise ValueError(f"n^(-p/2) at n = {n_grid[-1]:g}, p = {p:g} underflows below the "
                             "least normal double: its risk would read 0")
    # per n, the threshold draw: none for the density model, whose empirical coefficients
    # have no theta + noise split, nor for a linear rule, which has no lam
    peaks = (None if density or rules[0][2] is None
             else _level_peaks(truths, max(map(max, depths))))
    splits = [None if peaks is None else
              _ThresholdNoise.plan(n, lam, read, peaks[: max(row) + 1])
              for n, (read, _, lam), row in zip(n_grid, rules, depths)]

    def execute(master_seed: int, threads: int = 1) -> tuple[RiskTable, ...]:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        sides = [_loss_sides(t, filt, [row[k] for row in depths], p)  # per truth, per depth
                 for k, t in enumerate(truths)]
        plans = [(n, estimate, split, row, [s[j] for s, j in zip(sides, row)])
                 for n, (_, estimate, _), split, row in zip(n_grid, rules, splits, depths)]
        replicates = _Replicates(truths, plans, filt, master_seed, samplers)
        workers = min(threads, len(n_grid) * R, os.cpu_count() or 1)
        # rows per block, by the width a row observes
        sizes = [max(1, _BLOCK_SAMPLES // (2 << max(row) if split is None else split.width))
                 for split, row in zip(splits, depths)]
        losses = np.empty((len(truths), len(n_grid), R))
        for i, reps, values in _replicate_results(replicates, _shares(sizes, R, workers)):
            losses[:, i, reps] = values
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
    return execute


def monte_carlo_risk(
    truths: tuple[CoefficientTree, ...],
    estimator: EstimatorSpec,
    n_grid,
    R: int,
    p: float,
    master_seed: int,
    *,
    filter_name: str = "db2",
    threads: int = 1,
    model: str = "sequence",
) -> tuple[RiskTable, ...]:
    """Empirical risk E ||estimate - truth||_p^p of each truth over an
    increasing n-grid, one RiskTable per truth: the plan _plan returns, executed.

    model names the observation model: "sequence", Gaussian sequence
    observations of the truth, or "density", empirical coefficients of a
    sample from the density the truth specifies; every estimator kind runs
    under either.  filter_name is the wavelet of the density model and of
    the p != 2 loss quadrature.  A truth's j_max is its model's depth.  The
    kind's rule gives, once per n, the estimate and the read depth, past
    which no estimator reads: a sequence replicate is observed to the lesser
    of it and the truth's depth (the estimate is that of the whole
    observation); a density replicate's empirical coefficients at the read
    depth.  Under a threshold rule lam, a sequence replicate draws its
    normals split at t = lam / (2 n^{-1/2}) where that is at least 2.5
    (models._ThresholdNoise): those with |Z| >= t first, wherever they fall,
    then the others only through the deepest level on which some truth's
    largest |theta| reaches lam - t n^{-1/2}.  The noise has the law of
    simulate_sequence's but another stream, and the estimate, its loss and
    every table are those of every level drawn, bit for bit.

    Each of the R replicates at each n simulates, estimates and evaluates the
    loss with a seed derived from (master_seed, n, replicate), so the tables
    are bit-identical across reruns and independent of scheduling.  threads
    is the number of workers, capped at the (n, replicate) job count and the
    cpu count: this process runs one share of the replicates, all of them at
    1, and forks a child for each other share (_replicate_results), each
    child with its own caches.  A worker runs its replicates of one n in
    blocks (_shares), each one stack of at most _BLOCK_SAMPLES / 2^(J + 1)
    rows (at least one), J the deepest depth any truth is observed to at
    that n, or under a split the deepest level every row draws; a row drawn
    deeper runs alone, and the block's other rows as one stack (_Replicates).
    The losses are stored by (n, replicate), so the reduction order is fixed.

    The truths do not enter the seed, so every truth is observed under the
    same noise (common random numbers), which each replicate draws once, and
    each table equals that of the truth alone: under a split, the truths
    set only how much of the noise is drawn, never its values.
    """
    return _plan(truths, estimator, n_grid, R, p, filter_name, model)(master_seed, threads)


def fit_slope(table: RiskTable, normalization: str) -> SlopeFit:
    """OLS of log risk on the log of n (or n / log n); implied_alpha = -slope / p."""
    if len(table.rows) < MIN_FIT_ROWS:
        raise ValueError(f"need at least {MIN_FIT_ROWS} rows to fit a slope")
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
