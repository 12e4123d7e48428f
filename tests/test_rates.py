import math
import os
import pickle
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from waverates import rates
from waverates.dyadic import MAX_DEPTH, CoefficientTree
from waverates.estimators import (linear_estimate, linear_weights, noise_depth, threshold_estimate,
                                  universal_threshold)
from waverates.generic import g_term
from waverates.models import DensitySampler, empirical_coefficients, simulate_sequence
from waverates.rates import (
    ESTIMATOR_KINDS,
    EstimatorSpec,
    RiskRow,
    RiskTable,
    fit_slope,
    generic_alpha,
    minimax_rate,
    monte_carlo_risk,
)
from waverates.spaces import SmoothnessParams
from waverates.truths import ShellTerm, bump_tree, density_truth_tree, shell_sum, shell_tree
from waverates.wavelet import (
    SYNTHESIS_PAD,
    GridSignal,
    _loss_sides,
    _QuarticSplit,
    get_filter,
    lp_mean,
    synthesize,
)

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
    # the worker processes inherit one DensitySampler, and the tables must
    # equal the in-process run's
    truths = (density_truth_tree(shell_tree(2, 2, 1, 6, 1.0, dither=2.0, j_min=2)),)
    est, density = EstimatorSpec("density_threshold"), dict(filter_name="db3", model="density")
    (a,) = monte_carlo_risk(truths, est, [256, 1024], 8, 2.0, 4242, **density)
    (b,) = monte_carlo_risk(truths, est, [256, 1024], 8, 2.0, 4242, threads=3, **density)
    assert [r.empirical_risk for r in a.rows] == [r.empirical_risk for r in b.rows]
    assert [r.std_error for r in a.rows] == [r.std_error for r in b.rows]
    (c,) = monte_carlo_risk(truths, est, [256, 1024], 8, 2.0, 4243, **density)
    assert a.rows[0].empirical_risk != c.rows[0].empirical_risk


def _small_risk(n_grid=(64, 256), R=4, threads=1):
    return monte_carlo_risk((shell_tree(2, 2, 1, 6, 2.0),), EstimatorSpec("threshold_hard"),
                            n_grid, R, 2.0, 4242, threads=threads)


def _no_fork():
    raise AssertionError("a process was forked")


def test_monte_carlo_one_thread_starts_no_pool(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    (table,) = _small_risk(threads=1)
    assert [row.n for row in table.rows] == [64, 256]


def test_import_cli_loads_no_pool_modules():
    # neither the runner's start-up nor a run with two workers imports them
    code = ("import os, sys, waverates.cli\n"
            "from waverates.rates import EstimatorSpec, monte_carlo_risk\n"
            "from waverates.truths import shell_tree\n"
            "os.cpu_count = lambda: 2  # two workers on any machine\n"
            "monte_carlo_risk((shell_tree(2, 2, 1, 6, 2.0),), EstimatorSpec('threshold_hard'), "
            "[64, 256], 4, 2.0, 4242, threads=2)\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout == "[]\n"


class _InProcessChild:
    """Stands in for rates._Child: records its share and runs it in this
    process."""

    shares: list = []

    def __init__(self, replicates, share):
        self.shares.append(share)
        self._results = [replicates(job) for job in share]

    def results(self):
        return self._results

    def stop(self):
        pass


@pytest.mark.parametrize("cpus, n_grid, R, expected", [
    (os.cpu_count(), [64], 2, min(2, os.cpu_count() or 1)),  # 2 jobs
    (8, [64], 2, 2),
    (3, [64, 256], 4, 3),
    (1, [64, 256], 4, 1),
    (None, [64, 256], 4, 1),
])
def test_monte_carlo_caps_the_workers(cpus, n_grid, R, expected, monkeypatch):
    # no process starts: a huge threads value must not ask for that many
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(rates, "_Child", _InProcessChild)
    monkeypatch.setattr(_InProcessChild, "shares", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    tables = _small_risk(n_grid, R, threads=10**6)
    # the runner runs the first stride of the jobs, a child each other one
    jobs = [(i, rep) for i in range(len(n_grid)) for rep in range(R)]
    assert _InProcessChild.shares == [jobs[w::expected] for w in range(1, expected)]
    monkeypatch.undo()
    assert tables == _small_risk(n_grid, R, threads=1)


@contextmanager
def _within(seconds):
    """Raise TimeoutError in the block, rather than hang, once it has run seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _in_children(action):
    """threshold_estimate, but action() first in every process but this one."""
    runner = os.getpid()

    def estimate(*args, **kwargs):
        if os.getpid() != runner:
            action()
        return threshold_estimate(*args, **kwargs)
    return estimate


class _TwoArgError(Exception):
    def __init__(self, a, b):  # pickles, but does not load: args holds one message
        super().__init__(f"{a} and {b}")


def test_monte_carlo_worker_error_reaches_the_caller(monkeypatch):
    def broken():
        raise ValueError("estimator broke in a worker")

    def unloadable():
        raise _TwoArgError("left", "right")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rates, "threshold_estimate", _in_children(broken))
    with pytest.raises(ValueError, match="estimator broke in a worker") as caught, _within(60):
        _small_risk(threads=2)
    cause = caught.value.__cause__  # the child's traceback
    assert isinstance(cause, ChildProcessError) and "Traceback" in str(cause)
    assert "estimator broke in a worker" in str(cause)
    monkeypatch.setattr(rates, "threshold_estimate", _in_children(unloadable))
    with pytest.raises(RuntimeError, match="_TwoArgError: left and right"), _within(60):
        _small_risk(threads=2)
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        _small_risk(threads=0)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("action, how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL}"),
])
def test_monte_carlo_worker_exit_without_results_is_named(action, how, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rates, "threshold_estimate", _in_children(action))
    with pytest.raises(ChildProcessError, match=f"{how} before sending its results"), \
            _within(60):
        _small_risk(threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_monte_carlo_runner_error_stops_the_workers(monkeypatch):
    # the runner's share raises at its last job, when the child is likely
    # blocked writing results longer than a pipe holds: it is killed and reaped
    n_grid, R = (64, 256), 4000
    jobs = [(i, rep) for i in range(len(n_grid)) for rep in range(R)]
    child_results = [(i, rep, [float(rep)]) for i, rep in jobs[1::2]]
    assert len(pickle.dumps((None, child_results))) > 1 << 16
    runner, calls = os.getpid(), []

    def broken(*args, **kwargs):
        if os.getpid() == runner:
            calls.append(None)
            if len(calls) == len(jobs[::2]):
                raise ValueError("estimator broke in the runner")
        return threshold_estimate(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rates, "threshold_estimate", broken)
    with pytest.raises(ValueError, match="estimator broke in the runner"), _within(60):
        _small_risk(n_grid, R, threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_replicate_results_closed_early_leaves_no_child(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    results = rates._replicate_results(lambda job: (*job, [0.0]), [(0, rep) for rep in range(9)],
                                       threads=3)
    with _within(60):
        assert next(results) == (0, 0, [0.0])
        results.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    (table,) = monte_carlo_risk(truths, est, [2**10, 2**14], 32, 2.0, 123)
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


def reference_risk(truth, est, model, filter_name, n_grid, R, p, master_seed):
    """monte_carlo_risk written out for one estimator kind, replicate by replicate:
    a sequence replicate observed to the truth's depth, a density one at the read
    depth."""
    filt = get_filter(filter_name)
    sampler = DensitySampler.from_tree(truth, filt) if model == "density" else None
    rows = []
    for n in n_grid:
        if est.family == "linear":
            read = -1  # the largest level j with 2^j < m_n
            while 2.0 ** (read + 1) < est.cutoff(n):
                read += 1
            read = max(read, 0)
        else:
            read = noise_depth(n)
        losses = []
        for rep in range(R):
            seed = np.random.SeedSequence((master_seed, n, rep))
            if sampler is None:
                y = simulate_sequence(truth, n, truth.j_max, seed).y
            else:
                y = empirical_coefficients(sampler.sample(n, seed), filt, read)
            if est.kind == "projection":
                m_n = est.cutoff(n)
                estimate = linear_estimate(y, {j: 1.0 for j in range(64) if 2.0**j < m_n})
            elif est.kind == "pinsker":  # the frequency of level j is 2^j
                m_n = est.cutoff(n)
                estimate = linear_estimate(y, {j: 1.0 - (2.0**j / m_n) ** est.pinsker_order
                                               for j in range(64) if 2.0**j < m_n})
            elif est.kind in ("threshold_hard", "threshold_soft"):
                estimate = threshold_estimate(y, est.kappa * universal_threshold(n), read,
                                              est.kind.split("_")[1])
            else:  # density_threshold: hard at kappa = 1
                estimate = threshold_estimate(y, universal_threshold(n), read, "hard")
            diff = estimate - truth
            if p == 2.0:
                losses.append(diff.total_energy())
            else:
                coarse = synthesize(diff, filt, diff.j_max + 1)
                losses.append(lp_mean(coarse, filt, diff.j_max + SYNTHESIS_PAD, p))
        rows.append((float(np.mean(losses)), float(np.std(losses, ddof=1) / math.sqrt(R))))
    return rows


def at_depth(tree, depth):
    """The tree as a truth of depth `depth` (None: its own): its levels past
    depth dropped, or its array ending before depth, the levels past it zero."""
    if depth is None:
        return tree
    return CoefficientTree(1, depth, tree.scaling,
                           {j: a for j, a in tree.levels.items() if j <= depth})


def _model_case(kind, model, *rest):
    """A (kind, model, ...) test case; its id names the model when it is density."""
    suffix = ["density"] if model == "density" else []
    return pytest.param(kind, model, *rest, id="-".join(map(str, [kind, *rest, *suffix])))


# every estimator kind under either model, with the truth at its own depth (6)
# and at depth 2; the density cases at p = 4 synthesize each truth at one
# resolution per read depth of the n-grid deeper than the truth
ENGINE_CASES = [
    _model_case(kind, model, p, depth)
    for kind in ESTIMATOR_KINDS
    for model in ("sequence", "density")
    for p in (2.0, 4.0)
    for depth in (None, 2)
]


@pytest.mark.parametrize("kind,model,p,depth", ENGINE_CASES)
def test_monte_carlo_risk_matches_reference_loop(kind, model, p, depth):
    # at the larger n the linear cutoff level (3) and the kept thresholds reach
    # past depth 2, so a sequence replicate is observed less deep than it is
    # read.  At depth 2 the amplitude is that of split_truths' depth-2 truth, whose
    # levels cross the thresholds over the n-grid
    if model == "sequence":
        amplitude = 64.0 if depth is None else 4.0
        truth, n_grid, filter_name = (shell_tree(2, 2, 1, 6, amplitude, dither=2.0),
                                      [4096, 65536], "db2")
    else:
        truth = density_truth_tree(shell_tree(2, 2, 1, 6, 1.0, dither=2.0, j_min=2))
        n_grid, filter_name = [1024, 65536], "db3"
    truth = at_depth(truth, depth)
    est = EstimatorSpec(kind, smoothness=DENSE)
    (table,) = monte_carlo_risk((truth,), est, n_grid, 3, p, 31, filter_name=filter_name,
                                threads=2, model=model)
    want = reference_risk(truth, est, model, filter_name, n_grid, 3, p, 31)
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
                                 threads=1, model=model)
    assert serial.rows == table.rows


def grid_loss(estimate, truth, p, filt, depth):
    """The p != 2 loss on the full grid: the estimate's samples at the coarse
    resolution max(depth, truth depth) + 1 less the truth's, refined by lp_mean."""
    res = max(depth, truth.j_max) + 1
    diff = synthesize(estimate, filt, res).samples - synthesize(truth, filt, res).samples
    return lp_mean(GridSignal(res, diff), filt, res + SYNTHESIS_PAD - 1, p)


def hook_loss(patch, hook):
    """Route every loss the engine computes through hook(side, estimate, truth,
    p, filt, depth), side being the engine's own at that observed depth."""
    def hooked(side, truth, filt, depth, p):
        return SimpleNamespace(mean=lambda estimate: hook(side, estimate, truth, p, filt, depth))

    def sides(truth, filt, depths, p):
        return {depth: hooked(side, truth, filt, depth, p)
                for depth, side in _loss_sides(truth, filt, depths, p).items()}

    patch.setattr(rates, "_loss_sides", sides)


def split_truths(model, depth=None):
    """A generic_g truth, a bump at level 6 and a truth of depth 2, below most
    observed depths (an empty tail); under the density model, densities with
    these wavelet parts at amplitudes that keep them positive for db1 and db2.
    Each at_depth(truth, depth)."""
    if model == "sequence":
        truths = (shell_sum(1.2, 1, 9, [g_term(1, 0.7), ShellTerm(2.0, dither=2.0)]),
                  bump_tree(1, 9, 6, 21, 0.5), shell_tree(2, 2, 1, 2, 4.0))
    else:
        truths = tuple(density_truth_tree(t) for t in (
            shell_sum(1.2, 1, 9, [g_term(1, 0.1), ShellTerm(0.3, 0.0, 2, 2.0)]),
            bump_tree(1, 9, 6, 21, 0.05), shell_tree(2, 2, 1, 2, 0.2)))
    return tuple(at_depth(truth, depth) for truth in truths)


@pytest.mark.parametrize("kind", ["projection", "pinsker", "threshold_hard", "threshold_soft"])
@pytest.mark.parametrize("filter_name", ["db1", "db2"])
@pytest.mark.parametrize("model", ["sequence", "density"])
@pytest.mark.parametrize("depth", [None, 9])
def test_p4_loss_on_the_estimate_grid_matches_the_full_grid(kind, filter_name, model, depth,
                                                             monkeypatch):
    # at n = 64 every kind reads less deep than the depth-9 truths (a nonempty
    # tail), and at 4096 the thresholds read all of them (an empty one); at
    # depth 9 the third truth's array ends at level 2, below its depth
    args = (split_truths(model, depth), EstimatorSpec(kind, smoothness=DENSE), [64, 4096], 3,
            4.0, 23)
    options = dict(filter_name=filter_name, model=model)
    threaded = monte_carlo_risk(*args, threads=2, **options)
    tails, errors = set(), []

    def checked(split, estimate, truth, p, filt, depth):
        assert isinstance(split, _QuarticSplit)
        tails.add(split.cross is not None)
        loss = split.mean(estimate)
        want = grid_loss(estimate, truth, p, filt, depth)
        errors.append(abs(loss - want) / want)
        return loss

    with monkeypatch.context() as patch:
        hook_loss(patch, checked)
        assert monte_carlo_risk(*args, threads=1, **options) == threaded
    assert tails == {True, False} and len(errors) == 3 * 2 * 3 and max(errors) <= 1e-12


@pytest.mark.parametrize("filter_name,p", [("db4", 4.0), ("db2", 3.0), ("db1", 3.0)])
@pytest.mark.parametrize("model", ["sequence", "density"])
def test_loss_off_the_quartic_forms_is_the_full_grid_bit_for_bit(filter_name, p, model,
                                                                  monkeypatch):
    # db3 to db10 at p = 4 and every other p keep the full-grid quadrature
    args = (split_truths(model), EstimatorSpec("threshold_soft"), [64, 4096], 3, p, 5)
    options = dict(filter_name=filter_name, model=model)
    got = monte_carlo_risk(*args, **options)
    calls = []
    hook_loss(monkeypatch, lambda side, *loss_args: calls.append(side) or grid_loss(*loss_args))
    assert monte_carlo_risk(*args, **options) == got and len(calls) == 3 * 2 * 3


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
        assert linear_weights(m) == dict.fromkeys(kept, 1.0)
        if m > 2.0 ** (MAX_DEPTH + 1):  # a cutoff past the deepest level a tree holds
            with pytest.raises(ValueError, match="fixed_m_n must be a finite number"):
                EstimatorSpec("projection", fixed_m_n=m)
            continue
        for kind in ("projection", "pinsker"):
            depth[m], _ = ESTIMATOR_KINDS[kind].rule(EstimatorSpec(kind, fixed_m_n=m), 1024)
            assert depth[m] == max(kept, default=0)
    assert depth[1.0] == depth[np.nextafter(1.0, 2.0)] == 0
    assert depth[8.0] == 2 and depth[np.nextafter(8.0, 9.0)] == 3
    assert depth[2.0 ** (MAX_DEPTH + 1)] == MAX_DEPTH


def test_linear_cutoff_branches():
    # m_n = n^{1 / (2 s' + d)}, with generic_alpha("linear")'s s' on each branch
    assert abs(EstimatorSpec("projection", smoothness=DENSE).cutoff(2**10) - 4.0) < 1e-12
    sparse = EstimatorSpec("pinsker", smoothness=SPARSE)
    assert abs(sparse.cutoff(2**19) - 2.0**10) < 1e-9  # s' = 0.45: n^{1/1.9}
    s, r, p, d = 1.2, 1.0, 4.0, 1
    assert sparse.cutoff(777) == 777.0 ** (1.0 / (2.0 * (s - d / r + d / p) + d))
    assert EstimatorSpec("projection", smoothness=DENSE, fixed_m_n=3.0).cutoff(32) == 3.0


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
        # a bool is not a number: True would pass as 1 and False as 0
        (dict(kind="threshold_hard", kappa=True), "kappa must be positive and finite"),
        (dict(kind="pinsker", smoothness=DENSE, pinsker_order=True), "pinsker_order must be"),
        (dict(kind="projection", fixed_m_n=False), "fixed_m_n must be a finite number"),
        (dict(kind="projection", fixed_m_n=np.True_), "fixed_m_n must be a finite number"),
    ]:
        with pytest.raises(ValueError, match=message):
            EstimatorSpec(**kwargs)


def test_pinsker_below_one_level_keeps_no_wavelet_level():
    # m_n <= 1 keeps no level under either linear profile
    truths = (shell_tree(2, 2, 1, 5, 1.0),)
    risks = [monte_carlo_risk(truths, EstimatorSpec(kind, fixed_m_n=0.5), [256, 512], 4,
                              2.0, 3)[0].risks for kind in ("projection", "pinsker")]
    assert np.array_equal(risks[0], risks[1])


# the truths at their own depths, or each at_depth 5 or 4
MULTI_CASES = [_model_case(*case) for case in [
    ("threshold_hard", "sequence", 2.0, None), ("threshold_soft", "sequence", 2.0, 5),
    ("projection", "sequence", 4.0, None), ("pinsker", "sequence", 2.0, None),
    ("density_threshold", "sequence", 2.0, None), ("density_threshold", "density", 2.0, None),
    ("projection", "density", 2.0, 4), ("threshold_soft", "density", 2.0, None),
]]


@pytest.mark.parametrize("kind,model,p,depth", MULTI_CASES)
@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_risk_over_truths_matches_one_truth_calls(kind, model, p, depth, threads):
    # the truths differ in depth and in missing levels but share one draw per (n, rep)
    if model == "sequence":
        truths = (shell_tree(2, 2, 1, 6, 64.0, dither=2.0), shell_tree(2, 2, 1, 8, 8.0, j_min=3),
                  CoefficientTree.zeros(1, 4))
        n_grid, filter_name = [256, 4096, 65536], "db2"
    else:
        truths = tuple(density_truth_tree(shell_tree(2, 2, 1, 6, a, dither=2.0, j_min=2))
                       for a in (1.0, 0.5))
        n_grid, filter_name = [1024, 16384], "db3"
    truths = tuple(at_depth(truth, depth) for truth in truths)
    est = EstimatorSpec(kind, smoothness=DENSE)
    options = dict(filter_name=filter_name, model=model)
    tables = monte_carlo_risk(truths, est, n_grid, 3, p, 17, threads=threads, **options)
    assert isinstance(tables, tuple) and len(tables) == len(truths)
    for truth, table in zip(truths, tables):
        (alone,) = monte_carlo_risk((truth,), est, n_grid, 3, p, 17, **options)
        assert isinstance(alone, RiskTable)
        assert table.rows == alone.rows and table.loss_p == alone.loss_p


def test_monte_carlo_risk_rejects_mixed_or_missing_truths():
    est = EstimatorSpec("threshold_hard")
    # a truth of another dimension cannot be built: CoefficientTree takes d = 1 only
    with pytest.raises(ValueError, match="need at least one truth"):
        monte_carlo_risk((), est, [64, 128], 2, 2.0, 1)
    with pytest.raises(ValueError, match="dimension must be 1, got 2"):
        CoefficientTree.zeros(2, 3)
    # a misspelt model is an error, not the sequence model
    with pytest.raises(ValueError, match="model must be 'sequence' or 'density', got 'densty'"):
        monte_carlo_risk((shell_tree(2, 2, 1, 4, 1.0),), est, [64, 128], 2, 2.0, 1,
                         model="densty")


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)  # every kind, under the sequence model
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


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
@pytest.mark.parametrize("model", ["sequence", "density"])
def test_each_estimate_has_the_depth_of_its_observed_tree(kind, model):
    # the engine picks each truth's loss side by the observed depth, before
    # any replicate, so the estimate must have that depth whatever it reads
    truth = density_truth_tree(shell_tree(2, 2, 1, 6, 1.0, dither=2.0, j_min=2))
    filt = get_filter("db2")
    sampler = DensitySampler.from_tree(truth, filt)
    est = EstimatorSpec(kind, smoothness=DENSE)
    for n in (64, 4096):
        read, estimate = ESTIMATOR_KINDS[kind].rule(est, n)
        assert read >= 1
        for depth in (read - 1, read, read + 3):  # shallower and deeper than the read depth
            seed = np.random.SeedSequence((5, n))
            if model == "sequence":
                y = simulate_sequence(truth, n, depth, seed).y
            else:
                y = empirical_coefficients(sampler.sample(n, seed), filt, depth)
            assert y.j_max == depth and estimate(y).j_max == depth


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
    filt = get_filter("db2")
    for truth in truths:
        # every depth gets the truth's one side; at p = 2 the depths do not enter
        sides = _loss_sides(truth, filt, [2, 5, 12], 2.0)
        assert len({id(side) for side in sides.values()}) == 1
        for estimate in estimates:
            want = (estimate - truth).total_energy()
            assert sides[5].mean(estimate) == want
