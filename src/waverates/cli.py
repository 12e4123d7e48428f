"""Configuration-driven experiment runner.

A single JSON config file describes one experiment: the smoothness/loss
parameters, the truth function, the estimator, the n-grid and replicate
count, and the acceptance tolerances.  ``run`` executes the pipeline, writes
plot-ready CSV tables plus a manifest (resolved config and its content hash)
into the output directory, and reports pass/fail verdicts; identical config
and seed produce byte-identical outputs.  ``report`` re-renders the verdicts
from the stored tables without re-simulating.

Subcommands:
    run       execute an experiment from a config file
    validate  parse and cross-check a config, print the resolved form
    build-g   dump the saturating function's coefficient tree to CSV
    rates     print the theoretical rate table for given parameters
    report    re-render verdicts from a completed output directory

Flags --config/--seed/--out/--threads; the environment variables
WAVERATES_SEED, WAVERATES_OUT and WAVERATES_THREADS mirror the last three.

CSV schemas: risk (n, risk, std_error, replicates), slope (normalization,
slope, implied_alpha, r_squared), scaling (p, estimate, theory, residual),
witness (t, bound, log2_bound).  Coefficient trees use the record stream of
``recordio`` ((j, k..., value) rows under a d/j_max/scaling header).

Each experiment kind is one entry of ``EXPERIMENTS``; ``run`` writes its
tables, then derives the verdicts from the written files exactly as ``report``
does.  Exit status: the number of failed verdicts, capped at 100;
EXIT_CONFIG_ERROR (101) for an invalid or unreadable config, flag or run
directory (one ``error: ...`` line on stderr); EXIT_INTERNAL_ERROR (102) for
any other error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import recordio
from .dyadic import CoefficientTree
from .generic import GenericFunctionSpec, build_g, weak_exclusion_witness
from .rates import (
    ESTIMATOR_KINDS,
    EstimatorSpec,
    ModelSpec,
    RiskRow,
    RiskTable,
    fit_slope,
    generic_alpha,
    linear_minimax_rate,
    minimax_rate,
    monte_carlo_risk,
)
from .spaces import SmoothnessParams, empirical_scaling, theoretical_scaling
from .truths import (
    bump_tree,
    density_truth_tree,
    shell_tree,
    uniform_density_tree,
)
from .wavelet import get_filter

EXIT_CONFIG_ERROR = 101
EXIT_INTERNAL_ERROR = 102


class ConfigError(ValueError):
    """A config failed validation; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_kind: str
    smoothness: SmoothnessParams
    truth_spec: dict
    estimator_spec: dict
    n_grid: tuple[int, ...]
    replicates: int
    master_seed: int
    filter_name: str
    j_max: int
    output_dir: str
    probe_alphas: tuple[float, ...] = (-1.0, -0.3, 0.3, 1.0)
    scaling_p: tuple[float, ...] = (1.0, 2.0, 4.0)
    scaling_window: tuple[int, int] = (4, 14)
    witness_eps: float = 0.1
    witness_t_range: tuple[int, int] = (10, 30)
    tolerances: dict = field(default_factory=dict)
    threads: int = 1

    def resolved(self) -> dict:
        """JSON form that round-trips through validate_config deterministically."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({key: list(value) for key, value in out.items() if isinstance(value, tuple)})
        out["filter"] = out.pop("filter_name")
        out["smoothness"] = {key: "inf" if math.isinf(value) else value
                             for key, value in asdict(self.smoothness).items()}
        return out


@dataclass(frozen=True)
class RunReport:
    manifest: dict
    manifest_hash: str
    tables: tuple[str, ...]
    verdicts: tuple[dict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts)


def _parse_real(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {name!r}: expected a number, got {value!r}") from None


def _parse_object(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def validate_config(raw_text: str) -> ExperimentConfig:
    """Parse and cross-check a JSON experiment config, applying defaults.

    Defaults: q = inf, kappa = 2, and each experiment kind's tolerances in
    EXPERIMENTS.  Rejects unknown top-level and tolerance keys and values of
    the wrong type.  Cross-checks s > d/r, estimator/model compatibility, n_grid
    monotonicity, replicates >= 2 for Monte Carlo risks, threads >= 1 (also
    when set by --threads or WAVERATES_THREADS), filter vanishing moments
    >= ceil(s), existence of any referenced tree files, and d = 1 wherever
    the run synthesizes a grid (density experiments and p != 2 losses).
    """
    raw = _parse_object(raw_text)
    try:
        config = _validated(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from None
    unknown = sorted(set(raw) - set(config.resolved()))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return config


def _validated(raw: dict) -> ExperimentConfig:
    kind = raw.get("experiment_kind")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"experiment_kind must be one of {tuple(EXPERIMENTS)}, got {kind!r}")
    experiment = EXPERIMENTS[kind]

    sm_raw = raw.get("smoothness", {})
    s = _parse_real(sm_raw.get("s"), "smoothness.s")
    r = _parse_real(sm_raw.get("r"), "smoothness.r")
    p = _parse_real(sm_raw.get("p"), "smoothness.p")
    d = int(sm_raw.get("d", 1))
    q = _parse_real(sm_raw.get("q", "inf"), "smoothness.q")
    smoothness = SmoothnessParams(s=s, r=r, p=p, d=d, q=q)

    estimator_spec = dict(raw.get("estimator_spec", {}))
    est_kind = estimator_spec.setdefault("kind", "threshold_hard")
    estimator_spec.setdefault("kappa", 2.0)
    if est_kind not in ESTIMATOR_KINDS:
        raise ConfigError(
            f"estimator_spec.kind must be one of {tuple(ESTIMATOR_KINDS)}, got {est_kind!r}"
        )
    monte_carlo = experiment.model is not None
    if monte_carlo and ESTIMATOR_KINDS[est_kind].model != experiment.model:
        raise ConfigError(f"estimator {est_kind!r} is incompatible with experiment kind {kind!r}")

    truth_spec = dict(raw.get("truth_spec", {"kind": "generic_g"}))
    truth_kind = truth_spec.setdefault("kind", "generic_g")
    known_truths = ("generic_g", "explicit_tree_file", "uniform_density", "custom_bump")
    if truth_kind not in known_truths:
        raise ConfigError(f"truth_spec.kind must be one of {known_truths}, got {truth_kind!r}")
    if truth_kind == "explicit_tree_file":
        path = truth_spec.get("path")
        if not path or not Path(path).is_file():
            raise ConfigError(f"truth_spec.path does not exist: {path!r}")
    if truth_kind == "uniform_density" and experiment.model != "density":
        raise ConfigError("uniform_density truth requires a density experiment")

    n_grid = tuple(int(n) for n in raw.get("n_grid", []))
    if monte_carlo:
        if not n_grid:
            raise ConfigError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if min(n_grid) < 2:
            raise ConfigError("n_grid entries must be >= 2")

    replicates = int(raw.get("replicates", 32))
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if monte_carlo and replicates < 2:
        raise ConfigError("replicates must be >= 2: the risk standard error needs two")

    if d != 1 and experiment.model == "density":
        raise ConfigError(f"density experiments are one-dimensional; got d={d}")
    if d != 1 and p != 2 and experiment.model == "sequence":
        raise ConfigError(
            f"a p={p} loss needs grid synthesis, which is defined for d=1 only; got d={d} "
            "(use p=2, whose loss is the coefficient energy, or d=1)"
        )

    filter_name = raw.get("filter", "db2")
    try:
        filt = get_filter(filter_name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None
    if filt.vanishing_moments < math.ceil(s):
        raise ConfigError(
            f"filter {filter_name!r} has {filt.vanishing_moments} vanishing moments; "
            f"the smoothness characterization needs at least ceil(s) = {math.ceil(s)}"
        )

    j_max = int(raw.get("j_max", 14))
    if j_max < 1:
        raise ConfigError("j_max must be >= 1")

    try:
        threads = int(raw.get("threads", 1))
    except (TypeError, ValueError):
        raise ConfigError(f"threads: expected an integer, got {raw['threads']!r}") from None
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    tolerances = dict(raw.get("tolerances", {}))
    unknown = sorted(set(tolerances) - set(experiment.tolerances))
    if unknown:
        raise ConfigError(f"tolerances: unknown key {unknown[0]!r} for {kind}; "
                          f"expected any of {sorted(experiment.tolerances)}")

    window = tuple(int(v) for v in raw.get("scaling_window", (4, 14)))
    t_range = tuple(int(v) for v in raw.get("witness_t_range", (10, 30)))
    if len(window) != 2 or len(t_range) != 2:
        raise ConfigError("scaling_window and witness_t_range must be pairs")

    return ExperimentConfig(
        experiment_kind=kind,
        smoothness=smoothness,
        truth_spec=truth_spec,
        estimator_spec=estimator_spec,
        n_grid=n_grid,
        replicates=replicates,
        master_seed=int(raw.get("master_seed", 0)),
        filter_name=filter_name,
        j_max=j_max,
        output_dir=str(raw.get("output_dir", "out")),
        probe_alphas=tuple(float(a) for a in raw.get("probe_alphas", (-1.0, -0.3, 0.3, 1.0))),
        scaling_p=tuple(float(v) for v in raw.get("scaling_p", (1.0, 2.0, 4.0))),
        scaling_window=window,
        witness_eps=float(raw.get("witness_eps", 0.1)),
        witness_t_range=t_range,
        tolerances=tolerances,
        threads=threads,
    )


def _build_truth(config: ExperimentConfig, probe_alpha=None) -> CoefficientTree:
    sm = config.smoothness
    spec = config.truth_spec
    kind = spec["kind"]
    if kind == "explicit_tree_file":
        return recordio.read_tree(spec["path"])
    if kind == "uniform_density":
        return uniform_density_tree(config.j_max)
    if kind == "custom_bump":
        tree = bump_tree(d=sm.d, j_max=config.j_max, level=int(spec.get("level", 1)),
                         position=int(spec.get("position", 0)),
                         amplitude=float(spec.get("amplitude", 1.0)))
    else:  # generic_g: the probe line through a shell-tree base
        alpha = probe_alpha if probe_alpha is not None else float(spec.get("probe_alpha", 0.7))
        base = float(spec.get("base_amplitude", 0.0))
        tree = alpha * _g(config)
        if base != 0.0:
            tree = tree + shell_tree(sm.s, sm.r, sm.d, config.j_max, base,
                                     dither=float(spec.get("dither", 0.0)),
                                     j_min=int(spec.get("j_min", 0)))
    if EXPERIMENTS[config.experiment_kind].model == "density":
        return density_truth_tree(tree)
    return tree


def _estimator_from_spec(config: ExperimentConfig) -> EstimatorSpec:
    spec, fixed = config.estimator_spec, config.estimator_spec.get("fixed_m_n")
    return EstimatorSpec(kind=spec["kind"], smoothness=config.smoothness,
                         kappa=float(spec.get("kappa", 2.0)),
                         pinsker_order=float(spec.get("pinsker_order", 2.0)),
                         fixed_m_n=None if fixed is None else float(fixed))


def _alpha_label(alpha: float) -> str:
    return f"alpha{alpha:+.2f}".replace("+", "p").replace("-", "m").replace(".", "_")


def _verdict(criterion, measured, expected, tolerance, passed) -> dict:
    return {"criterion": criterion, "measured": float(measured), "expected": float(expected),
            "tolerance": float(tolerance), "pass": bool(passed)}


def _tolerance(config: ExperimentConfig, key: str):
    return config.tolerances.get(key, EXPERIMENTS[config.experiment_kind].tolerances[key])


def _g(config: ExperimentConfig) -> CoefficientTree:
    sm = config.smoothness
    return build_g(GenericFunctionSpec(s=sm.s, r=sm.r, d=sm.d, j_max=config.j_max))


def _regime(config: ExperimentConfig):
    return generic_alpha(ESTIMATOR_KINDS[config.estimator_spec["kind"]].family, config.smoothness)


def _risk_name(config: ExperimentConfig, label: str) -> str:
    return f"risk_{config.estimator_spec['kind']}{label}.csv"


def _risk_tables(config: ExperimentConfig, truth, label: str = ""):
    """Risk and slope tables of one truth, and the slope fit."""
    model = EXPERIMENTS[config.experiment_kind].model
    model_spec = ModelSpec(kind=model, filter_name=config.filter_name,
                           j_max=None if model == "density" else config.j_max)
    table = monte_carlo_risk(truth, _estimator_from_spec(config), model_spec, config.n_grid,
                             config.replicates, config.smoothness.p, config.master_seed,
                             threads=config.threads)
    fit = fit_slope(table, _regime(config).normalization)
    return [
        (_risk_name(config, label), ["n", "risk", "std_error", "replicates"],
         [(row.n, row.empirical_risk, row.std_error, row.replicates) for row in table.rows]),
        (f"slope_{config.estimator_spec['kind']}{label}.csv",
         ["normalization", "slope", "implied_alpha", "r_squared"],
         [(fit.normalization, fit.slope, fit.implied_alpha, fit.r_squared)]),
    ], fit


def _stored_fit(config: ExperimentConfig, read, label: str = ""):
    rows = tuple(RiskRow(int(n), risk, se, int(reps))
                 for n, risk, se, reps in read(_risk_name(config, label)))
    return fit_slope(RiskTable(rows, config.smoothness.p), _regime(config).normalization)


def _rate_fit_tables(config: ExperimentConfig):
    return _risk_tables(config, _build_truth(config))[0]


def _rate_fit_verdicts(config: ExperimentConfig, read) -> list[dict]:
    expected, fit = _regime(config).alpha, _stored_fit(config, read)
    implied, alpha_tol = fit.implied_alpha, float(_tolerance(config, "alpha"))
    kind = config.experiment_kind
    if bool(_tolerance(config, "one_sided")):
        name, passed = "alpha_upper", implied <= expected + alpha_tol
    else:
        name, passed = "implied_alpha", abs(implied - expected) <= alpha_tol
    verdicts = [_verdict(f"{kind}.{name}", implied, expected, alpha_tol, passed)]
    floor = _tolerance(config, "r_squared")
    if floor is not None:
        verdicts.append(_verdict(f"{kind}.r_squared", fit.r_squared, float(floor), 0.0,
                                 fit.r_squared >= float(floor)))
    return verdicts


def _probe_sweep_tables(config: ExperimentConfig):
    tables, fits = [], {}
    for alpha in config.probe_alphas:
        truth = _build_truth(config, probe_alpha=alpha)
        new, fit = _risk_tables(config, truth, "_" + _alpha_label(alpha))
        tables += new
        fits[alpha] = fit.implied_alpha
    return tables + [("probe_sweep.csv", ["alpha", "implied_alpha"], sorted(fits.items()))]


def _probe_sweep_verdicts(config: ExperimentConfig, read) -> list[dict]:
    fits = [_stored_fit(config, read, "_" + _alpha_label(alpha)).implied_alpha
            for alpha in config.probe_alphas]
    spread = max(fits) - min(fits)
    spread_tol = float(_tolerance(config, "spread"))
    return [_verdict("probe_sweep.spread", spread, 0.0, spread_tol, spread <= spread_tol)]


def _scaling_tables(config: ExperimentConfig):
    sm, g = config.smoothness, _g(config)
    estimates = [empirical_scaling(g, p, config.scaling_window) for p in config.scaling_p]
    rows = [(p, e.estimate, theoretical_scaling(sm.s, sm.r, p, sm.d), e.residual)
            for p, e in zip(config.scaling_p, estimates)]
    return [("scaling.csv", ["p", "estimate", "theory", "residual"], rows)]


def _scaling_verdicts(config: ExperimentConfig, read) -> list[dict]:
    scale_tol = float(_tolerance(config, "scaling"))
    return [
        _verdict(f"scaling_function.p={p:g}", est, theory, scale_tol,
                 abs(est - theory) <= scale_tol)
        for p, est, theory, _resid in read("scaling.csv")
    ]


def _witness_tables(config: ExperimentConfig):
    sm = config.smoothness
    witness = weak_exclusion_witness(_g(config), sm.s, sm.r, sm.p, sm.d, config.witness_eps,
                                     config.witness_t_range[1])
    rows = [(t, b, math.log2(b) if b > 0 else float("-inf")) for t, b in witness]
    return [("witness.csv", ["t", "bound", "log2_bound"], rows)]


def _witness_verdicts(config: ExperimentConfig, read) -> list[dict]:
    t_lo, t_hi = config.witness_t_range
    kept = [(t, b) for t, b, _log2_b in read("witness.csv") if t_lo <= t <= t_hi]
    ts = np.array([t for t, _ in kept], dtype=np.float64)
    slope = float(np.polyfit(ts, np.log2([b for _, b in kept]), 1)[0])
    target = config.witness_eps * config.smoothness.p
    rel_tol = float(_tolerance(config, "witness_rel"))
    ok = abs(slope - target) <= rel_tol * target
    return [_verdict("weak_exclusion.log2_slope", slope, target, rel_tol * target, ok)]


class Experiment(NamedTuple):
    """An experiment kind: its Monte Carlo model ("sequence", "density" or None),
    its tolerance keys with their defaults, tables(config) -> [(file name,
    columns, rows)], and verdicts(config, read), where read(file name) returns
    a stored table's rows as floats."""

    model: str | None
    tolerances: dict
    tables: Callable
    verdicts: Callable


_RATE_TOLERANCES = {"alpha": 0.08, "one_sided": False, "r_squared": None}

EXPERIMENTS = {
    "rate_fit": Experiment("sequence", _RATE_TOLERANCES, _rate_fit_tables, _rate_fit_verdicts),
    "scaling_function": Experiment(None, {"scaling": 0.1}, _scaling_tables, _scaling_verdicts),
    "weak_exclusion": Experiment(None, {"witness_rel": 0.2}, _witness_tables,
                                 _witness_verdicts),
    "probe_sweep": Experiment("sequence", {"spread": 0.05}, _probe_sweep_tables,
                              _probe_sweep_verdicts),
    "density_rate_fit": Experiment("density", _RATE_TOLERANCES, _rate_fit_tables,
                                   _rate_fit_verdicts),
}


def _verdicts(config: ExperimentConfig, out_dir: Path) -> list[dict]:
    def read(name: str) -> list[list[float]]:
        _, rows = recordio.read_table(out_dir / name)
        return [[float(v) for v in row] for row in rows]

    return EXPERIMENTS[config.experiment_kind].verdicts(config, read)


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment; write tables, manifest and verdicts."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = config.resolved()
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    mh = hashlib.sha256(canonical.encode()).hexdigest()
    tables = []
    for name, columns, rows in EXPERIMENTS[config.experiment_kind].tables(config):
        recordio.write_table(out_dir / name, columns, rows, mh)
        tables.append(str(out_dir / name))
    verdicts = _verdicts(config, out_dir)
    for name, payload in (("manifest.json", {"manifest": manifest, "hash": mh}),
                          ("report.json", {"hash": mh, "verdicts": verdicts})):
        (out_dir / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return RunReport(manifest=manifest, manifest_hash=mh,
                     tables=tuple(tables), verdicts=tuple(verdicts))


def report_from_dir(out_dir) -> list[dict]:
    """Re-render verdicts from the stored tables of a completed run."""
    out_dir = Path(out_dir)
    try:  # only reading the directory's files raises these
        manifest = json.loads((out_dir / "manifest.json").read_text()).get("manifest")
        return _verdicts(validate_config(json.dumps(manifest)), out_dir)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read run directory {out_dir}: {exc}") from None


def _print_verdicts(verdicts) -> int:
    """Print one line per verdict; return the failure count, capped at 100."""
    for v in verdicts:
        print(f"{'PASS' if v['pass'] else 'FAIL'} {v['criterion']}: "
              f"measured={v['measured']:.6g} expected={v['expected']:.6g} "
              f"tol={v['tolerance']:.6g}")
    return min(sum(not v["pass"] for v in verdicts), 100)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="waverates",
                                     description="wavelet estimation rate experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--threads", type=int, default=None)

    val_p = sub.add_parser("validate", help="validate a config and print the resolved form")
    val_p.add_argument("--config", required=True)

    g_p = sub.add_parser("build-g", help="dump the saturating tree to CSV")
    g_p.add_argument("--s", type=float, required=True)
    g_p.add_argument("--r", type=float, required=True)
    g_p.add_argument("--d", type=int, default=1)
    g_p.add_argument("--j-max", type=int, default=12)
    g_p.add_argument("--out", required=True)

    rates_p = sub.add_parser("rates", help="print the theoretical rate table")
    rates_p.add_argument("--s", type=float, required=True)
    rates_p.add_argument("--r", type=float, required=True)
    rates_p.add_argument("--p", type=float, required=True)
    rates_p.add_argument("--d", type=int, default=1)
    rates_p.add_argument("--n", type=int, default=1 << 14)

    rep_p = sub.add_parser("report", help="re-render verdicts from a run directory")
    rep_p.add_argument("--dir", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_CONFIG_ERROR if exc.code else 0
    try:
        return _command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _from_flags(cls, **params):
    try:
        return cls(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _command(args) -> int:
    if args.command == "validate":
        config = validate_config(_read_config(args.config))
        print(json.dumps(config.resolved(), sort_keys=True, indent=2))
        return 0

    if args.command == "run":
        raw = _parse_object(_read_config(args.config))
        for key, flag, env in (("master_seed", args.seed, "WAVERATES_SEED"),
                               ("output_dir", args.out, "WAVERATES_OUT"),
                               ("threads", args.threads, "WAVERATES_THREADS")):
            value = flag if flag is not None else os.environ.get(env)
            if value is not None:
                raw[key] = value
        report = run(validate_config(json.dumps(raw)))
        print(f"manifest hash: {report.manifest_hash}")
        for path in report.tables:
            print(f"wrote {path}")
        return _print_verdicts(report.verdicts)

    if args.command == "build-g":
        spec = _from_flags(GenericFunctionSpec, s=args.s, r=args.r, d=args.d, j_max=args.j_max)
        recordio.write_tree(build_g(spec), args.out)
        print(f"wrote {args.out}")
        return 0

    if args.command == "rates":
        params = _from_flags(SmoothnessParams, s=args.s, r=args.r, p=args.p, d=args.d)
        mm, mm_val = minimax_rate(params, args.n)
        lin, lin_val = linear_minimax_rate(params, args.n)
        print(f"parameters: s={args.s} r={args.r} p={args.p} d={args.d} (n={args.n})")
        print(f"minimax:        branch={mm.branch:6s} alpha={mm.alpha:.6f} "
              f"norm={mm.normalization:12s} value={mm_val:.6e}")
        print(f"linear minimax: branch={lin.branch:6s} alpha={lin.alpha:.6f} "
              f"norm={lin.normalization:12s} value={lin_val:.6e}")
        for family in ("linear", "threshold", "limited", "elitist"):
            reg = generic_alpha(family, params)
            print(f"generic {family:9s} branch={reg.branch:6s} alpha={reg.alpha:.6f} "
                  f"norm={reg.normalization:12s} (alpha_tilde={reg.alpha_tilde:.6f})")
        return 0

    return _print_verdicts(report_from_dir(args.dir))  # report


if __name__ == "__main__":
    sys.exit(main())
