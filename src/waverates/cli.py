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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import recordio
from .dyadic import CoefficientTree
from .generic import GenericFunctionSpec, build_g, weak_exclusion_witness
from .rates import (
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

EXPERIMENT_KINDS = (
    "rate_fit",
    "scaling_function",
    "weak_exclusion",
    "probe_sweep",
    "density_rate_fit",
)

_SEQUENCE_ESTIMATORS = ("projection", "pinsker", "threshold_hard", "threshold_soft")
_DENSITY_ESTIMATORS = ("density_linear", "density_threshold")


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
        sm = self.smoothness
        return {
            "experiment_kind": self.experiment_kind,
            "smoothness": {"s": sm.s, "r": _inf_str(sm.r), "p": sm.p, "d": sm.d,
                           "q": _inf_str(sm.q)},
            "truth_spec": self.truth_spec,
            "estimator_spec": self.estimator_spec,
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "filter": self.filter_name,
            "j_max": self.j_max,
            "output_dir": self.output_dir,
            "probe_alphas": list(self.probe_alphas),
            "scaling_p": list(self.scaling_p),
            "scaling_window": list(self.scaling_window),
            "witness_eps": self.witness_eps,
            "witness_t_range": list(self.witness_t_range),
            "tolerances": self.tolerances,
            "threads": self.threads,
        }


@dataclass(frozen=True)
class RunReport:
    manifest: dict
    manifest_hash: str
    tables: tuple[str, ...]
    verdicts: tuple[dict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts)


def _inf_str(x: float):
    return "inf" if math.isinf(x) else x


def _parse_real(value, name: str) -> float:
    if value in ("inf", "Infinity"):
        return math.inf
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {name!r}: expected a number, got {value!r}") from None


def validate_config(raw_text: str) -> ExperimentConfig:
    """Parse and cross-check a JSON experiment config, applying defaults.

    Defaults: q = inf, kappa = 2, natural log throughout.  Cross-checks the
    standing assumption s > d/r, estimator/model compatibility, n_grid
    monotonicity, replicates >= 2 for Monte Carlo risks, threads >= 1 (also
    when set by --threads or WAVERATES_THREADS), filter vanishing moments
    >= ceil(s), existence of any referenced tree files, and d = 1 wherever
    the run synthesizes a grid (density experiments and p != 2 losses).
    """
    try:
        raw = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    kind = raw.get("experiment_kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment_kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")

    sm_raw = raw.get("smoothness", {})
    s = _parse_real(sm_raw.get("s"), "smoothness.s")
    r = _parse_real(sm_raw.get("r"), "smoothness.r")
    p = _parse_real(sm_raw.get("p"), "smoothness.p")
    d = int(sm_raw.get("d", 1))
    q = _parse_real(sm_raw.get("q", "inf"), "smoothness.q")
    if s <= d / r:
        raise ConfigError(
            f"smoothness violates the standing assumption s > d/r: s={s}, d/r={d / r}"
        )
    try:
        smoothness = SmoothnessParams(s=s, r=r, p=p, d=d, q=q)
    except ValueError as exc:
        raise ConfigError(f"smoothness: {exc}") from None

    estimator_spec = dict(raw.get("estimator_spec", {}))
    est_kind = estimator_spec.setdefault("kind", "threshold_hard")
    estimator_spec.setdefault("kappa", 2.0)
    all_kinds = _SEQUENCE_ESTIMATORS + _DENSITY_ESTIMATORS
    if est_kind not in all_kinds:
        raise ConfigError(f"estimator_spec.kind must be one of {all_kinds}, got {est_kind!r}")
    density_kind = kind == "density_rate_fit"
    monte_carlo = kind in ("rate_fit", "probe_sweep", "density_rate_fit")
    if monte_carlo:
        if density_kind != (est_kind in _DENSITY_ESTIMATORS):
            raise ConfigError(
                f"estimator {est_kind!r} is incompatible with experiment kind {kind!r}"
            )

    truth_spec = dict(raw.get("truth_spec", {"kind": "generic_g"}))
    truth_kind = truth_spec.setdefault("kind", "generic_g")
    known_truths = ("generic_g", "explicit_tree_file", "uniform_density", "custom_bump")
    if truth_kind not in known_truths:
        raise ConfigError(f"truth_spec.kind must be one of {known_truths}, got {truth_kind!r}")
    if truth_kind == "explicit_tree_file":
        path = truth_spec.get("path")
        if not path or not Path(path).is_file():
            raise ConfigError(f"truth_spec.path does not exist: {path!r}")
    if truth_kind == "uniform_density" and not density_kind:
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

    if d != 1 and density_kind:
        raise ConfigError(f"density experiments are one-dimensional; got d={d}")
    if d != 1 and p != 2 and kind in ("rate_fit", "probe_sweep"):
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
        tolerances=dict(raw.get("tolerances", {})),
        threads=threads,
    )


def _manifest_hash(manifest: dict) -> str:
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _build_truth(config: ExperimentConfig, probe_alpha=None) -> CoefficientTree:
    sm = config.smoothness
    spec = config.truth_spec
    kind = spec["kind"]
    if kind == "explicit_tree_file":
        return recordio.read_tree(spec["path"])
    if kind == "uniform_density":
        return uniform_density_tree(config.j_max)
    if kind == "custom_bump":
        tree = bump_tree(
            d=sm.d,
            j_max=config.j_max,
            level=int(spec.get("level", 1)),
            position=int(spec.get("position", 0)),
            amplitude=float(spec.get("amplitude", 1.0)),
        )
    else:  # generic_g: the probe line through a shell-tree base
        alpha = probe_alpha if probe_alpha is not None else float(spec.get("probe_alpha", 0.7))
        base = float(spec.get("base_amplitude", 0.0))
        g = build_g(GenericFunctionSpec(s=sm.s, r=sm.r, d=sm.d, j_max=config.j_max))
        tree = alpha * g
        if base != 0.0:
            tree = tree + shell_tree(
                sm.s, sm.r, sm.d, config.j_max, base,
                dither=float(spec.get("dither", 0.0)),
                j_min=int(spec.get("j_min", 0)),
            )
    if config.experiment_kind == "density_rate_fit":
        return density_truth_tree(tree)
    return tree


def _estimator_from_spec(config: ExperimentConfig) -> EstimatorSpec:
    spec = config.estimator_spec
    return EstimatorSpec(
        kind=spec["kind"],
        smoothness=config.smoothness,
        kappa=float(spec.get("kappa", 2.0)),
        pinsker_order=float(spec.get("pinsker_order", 2.0)),
        fixed_m_n=(float(spec["fixed_m_n"]) if spec.get("fixed_m_n") is not None else None),
    )


def _alpha_label(alpha: float) -> str:
    return f"alpha{alpha:+.2f}".replace("+", "p").replace("-", "m").replace(".", "_")


def _verdict(criterion, measured, expected, tolerance, passed) -> dict:
    return {
        "criterion": criterion,
        "measured": float(measured),
        "expected": float(expected),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }


def _rate_verdicts(config: ExperimentConfig, table: RiskTable) -> tuple[list[dict], object]:
    est = _estimator_from_spec(config)
    regime = generic_alpha(est.family, config.smoothness)
    fit = fit_slope(table, regime.normalization)
    tol = config.tolerances
    alpha_tol = float(tol.get("alpha", 0.08))
    kind = config.experiment_kind
    verdicts = []
    if bool(tol.get("one_sided", False)):
        ok = fit.implied_alpha <= regime.alpha + alpha_tol
        verdicts.append(_verdict(f"{kind}.alpha_upper", fit.implied_alpha, regime.alpha,
                                 alpha_tol, ok))
    else:
        ok = abs(fit.implied_alpha - regime.alpha) <= alpha_tol
        verdicts.append(_verdict(f"{kind}.implied_alpha", fit.implied_alpha, regime.alpha,
                                 alpha_tol, ok))
    if tol.get("r_squared") is not None:
        floor = float(tol["r_squared"])
        verdicts.append(_verdict(f"{kind}.r_squared", fit.r_squared, floor, 0.0,
                                 fit.r_squared >= floor))
    return verdicts, fit


def _sweep_verdicts(config: ExperimentConfig, fits: dict[float, float]) -> list[dict]:
    spread = max(fits.values()) - min(fits.values())
    spread_tol = float(config.tolerances.get("spread", 0.05))
    return [_verdict("probe_sweep.spread", spread, 0.0, spread_tol, spread <= spread_tol)]


def _scaling_verdicts(config: ExperimentConfig, rows) -> list[dict]:
    scale_tol = float(config.tolerances.get("scaling", 0.1))
    return [
        _verdict(f"scaling_function.p={p:g}", est, theory, scale_tol,
                 abs(est - theory) <= scale_tol)
        for p, est, theory, _resid in rows
    ]


def _witness_verdicts(config: ExperimentConfig, witness) -> list[dict]:
    t_lo, t_hi = config.witness_t_range
    ts = np.array([t for t, b in witness if t_lo <= t <= t_hi], dtype=np.float64)
    lb = np.log2([b for t, b in witness if t_lo <= t <= t_hi])
    slope = float(np.polyfit(ts, lb, 1)[0])
    target = config.witness_eps * config.smoothness.p
    rel_tol = float(config.tolerances.get("witness_rel", 0.2))
    ok = abs(slope - target) <= rel_tol * target
    return [_verdict("weak_exclusion.log2_slope", slope, target, rel_tol * target, ok)]


def _risk_csv(out_dir: Path, est_kind: str, label: str = "") -> Path:
    suffix = f"_{label}" if label else ""
    return out_dir / f"risk_{est_kind}{suffix}.csv"


def _write_risk_and_slope(out_dir, est_kind, table, fit, mh, tables, label=""):
    suffix = f"_{label}" if label else ""
    risk_path = _risk_csv(out_dir, est_kind, label)
    recordio.write_table(
        risk_path,
        ["n", "risk", "std_error", "replicates"],
        [(row.n, row.empirical_risk, row.std_error, row.replicates) for row in table.rows],
        mh,
    )
    slope_path = out_dir / f"slope_{est_kind}{suffix}.csv"
    recordio.write_table(
        slope_path,
        ["normalization", "slope", "implied_alpha", "r_squared"],
        [(fit.normalization, fit.slope, fit.implied_alpha, fit.r_squared)],
        mh,
    )
    tables += [str(risk_path), str(slope_path)]


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment; write tables, manifest and verdicts."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = config.resolved()
    mh = _manifest_hash(manifest)
    tables: list[str] = []
    verdicts: list[dict] = []
    kind = config.experiment_kind
    est = _estimator_from_spec(config)

    if kind in ("rate_fit", "density_rate_fit"):
        truth = _build_truth(config)
        model_kind = "density" if est.needs_density else "sequence"
        model = ModelSpec(kind=model_kind, filter_name=config.filter_name,
                          j_max=None if model_kind == "density" else config.j_max)
        table = monte_carlo_risk(truth, est, model, config.n_grid, config.replicates,
                                 config.smoothness.p, config.master_seed,
                                 threads=config.threads)
        new_verdicts, fit = _rate_verdicts(config, table)
        verdicts += new_verdicts
        _write_risk_and_slope(out_dir, est.kind, table, fit, mh, tables)

    elif kind == "probe_sweep":
        model = ModelSpec(kind="sequence", filter_name=config.filter_name, j_max=config.j_max)
        fits: dict[float, float] = {}
        for alpha in config.probe_alphas:
            truth = _build_truth(config, probe_alpha=alpha)
            table = monte_carlo_risk(truth, est, model, config.n_grid, config.replicates,
                                     config.smoothness.p, config.master_seed,
                                     threads=config.threads)
            _, fit = _rate_verdicts(config, table)
            fits[alpha] = fit.implied_alpha
            _write_risk_and_slope(out_dir, est.kind, table, fit, mh, tables,
                                  label=_alpha_label(alpha))
        verdicts += _sweep_verdicts(config, fits)
        sweep_path = out_dir / "probe_sweep.csv"
        recordio.write_table(sweep_path, ["alpha", "implied_alpha"], sorted(fits.items()), mh)
        tables.append(str(sweep_path))

    elif kind == "scaling_function":
        sm = config.smoothness
        g = build_g(GenericFunctionSpec(s=sm.s, r=sm.r, d=sm.d, j_max=config.j_max))
        rows = []
        for p in config.scaling_p:
            estimate = empirical_scaling(g, p, config.scaling_window)
            theory = theoretical_scaling(sm.s, sm.r, p, sm.d)
            rows.append((p, estimate.estimate, theory, estimate.residual))
        verdicts += _scaling_verdicts(config, rows)
        scaling_path = out_dir / "scaling.csv"
        recordio.write_table(scaling_path, ["p", "estimate", "theory", "residual"], rows, mh)
        tables.append(str(scaling_path))

    elif kind == "weak_exclusion":
        sm = config.smoothness
        g = build_g(GenericFunctionSpec(s=sm.s, r=sm.r, d=sm.d, j_max=config.j_max))
        witness = weak_exclusion_witness(g, sm.s, sm.r, sm.p, sm.d, config.witness_eps,
                                         config.witness_t_range[1])
        verdicts += _witness_verdicts(config, witness)
        rows = [(t, b, math.log2(b) if b > 0 else float("-inf")) for t, b in witness]
        witness_path = out_dir / "witness.csv"
        recordio.write_table(witness_path, ["t", "bound", "log2_bound"], rows, mh)
        tables.append(str(witness_path))

    manifest_path = out_dir / "manifest.json"
    with manifest_path.open("w") as fh:
        json.dump({"manifest": manifest, "hash": mh}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    report = RunReport(manifest=manifest, manifest_hash=mh,
                       tables=tuple(tables), verdicts=tuple(verdicts))
    with (out_dir / "report.json").open("w") as fh:
        json.dump({"hash": mh, "verdicts": list(report.verdicts)}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report


def _risk_table_from_csv(path, loss_p: float) -> RiskTable:
    _, rows = recordio.read_table(path)
    return RiskTable(
        rows=tuple(RiskRow(int(r[0]), float(r[1]), float(r[2]), int(r[3])) for r in rows),
        loss_p=loss_p,
    )


def report_from_dir(out_dir) -> list[dict]:
    """Re-render verdicts from the stored tables of a completed run."""
    out_dir = Path(out_dir)
    with (out_dir / "manifest.json").open() as fh:
        manifest = json.load(fh)["manifest"]
    config = validate_config(json.dumps(manifest))
    kind = config.experiment_kind
    est = _estimator_from_spec(config)
    if kind in ("rate_fit", "density_rate_fit"):
        table = _risk_table_from_csv(_risk_csv(out_dir, est.kind), config.smoothness.p)
        verdicts, _ = _rate_verdicts(config, table)
        return verdicts
    if kind == "probe_sweep":
        fits = {}
        for alpha in config.probe_alphas:
            table = _risk_table_from_csv(
                _risk_csv(out_dir, est.kind, _alpha_label(alpha)), config.smoothness.p
            )
            _, fit = _rate_verdicts(config, table)
            fits[alpha] = fit.implied_alpha
        return _sweep_verdicts(config, fits)
    if kind == "scaling_function":
        _, rows = recordio.read_table(out_dir / "scaling.csv")
        return _scaling_verdicts(
            config, [(float(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows]
        )
    if kind == "weak_exclusion":
        _, rows = recordio.read_table(out_dir / "witness.csv")
        return _witness_verdicts(config, [(int(r[0]), float(r[1])) for r in rows])
    raise ConfigError(f"cannot re-render experiment kind {kind!r}")


def _print_verdicts(verdicts) -> int:
    failures = 0
    for v in verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        failures += 0 if v["pass"] else 1
        print(f"{status} {v['criterion']}: measured={v['measured']:.6g} "
              f"expected={v['expected']:.6g} tol={v['tolerance']:.6g}")
    return failures


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

    args = parser.parse_args(argv)

    if args.command == "validate":
        config = validate_config(Path(args.config).read_text())
        print(json.dumps(config.resolved(), sort_keys=True, indent=2))
        return 0

    if args.command == "run":
        raw = json.loads(Path(args.config).read_text())
        seed = args.seed if args.seed is not None else os.environ.get("WAVERATES_SEED")
        if seed is not None:
            raw["master_seed"] = int(seed)
        out = args.out if args.out is not None else os.environ.get("WAVERATES_OUT")
        if out is not None:
            raw["output_dir"] = str(out)
        threads = args.threads if args.threads is not None else os.environ.get("WAVERATES_THREADS")
        if threads is not None:
            raw["threads"] = threads
        config = validate_config(json.dumps(raw))
        report = run(config)
        print(f"manifest hash: {report.manifest_hash}")
        for path in report.tables:
            print(f"wrote {path}")
        return min(_print_verdicts(report.verdicts), 100)

    if args.command == "build-g":
        spec = GenericFunctionSpec(s=args.s, r=args.r, d=args.d, j_max=args.j_max)
        recordio.write_tree(build_g(spec), args.out)
        print(f"wrote {args.out}")
        return 0

    if args.command == "rates":
        params = SmoothnessParams(s=args.s, r=args.r, p=args.p, d=args.d)
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

    if args.command == "report":
        return min(_print_verdicts(report_from_dir(args.dir)), 100)

    return 2


if __name__ == "__main__":
    sys.exit(main())
