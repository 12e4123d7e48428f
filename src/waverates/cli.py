"""Configuration-driven experiment runner.

A JSON config describes the science of one experiment: smoothness/loss
parameters, truth, estimator, n-grid, replicates, seed and tolerances.
``run`` executes it on the caller's count of worker processes, writes
plot-ready CSV tables and a manifest (the resolved config, its content hash
and an unhashed ``execution`` entry: threads, output directory, the
python, numpy and waverates versions, and the operating system, machine and
kernel release) into the caller's output directory
and reports pass/fail verdicts; identical config and seed give
byte-identical tables at any worker count and output path.
``report`` re-renders the verdicts from the stored tables without re-simulating.

Subcommands:
    run       execute an experiment from a config file
    validate  parse and cross-check a config, print the resolved form
    build-g   dump the saturating function's coefficient tree to CSV
    rates     print the theoretical rate table for given parameters
    report    re-render verdicts from a completed output directory

``run`` flags: --config; --seed, which overrides master_seed (only the kinds
that read it take the flag); --out, the output directory (default
out/<config file stem>); --threads, the number of processes that run the
Monte Carlo replicates: the runner's own and threads - 1 forked children
(default 1: the runner's alone).

CSV schemas: risk (n, risk, std_error, replicates), slope (normalization,
slope, implied_alpha, r_squared), scaling (p, estimate, theory, residual),
witness (t, bound, log2_bound).  Coefficient trees use the record stream of
``recordio`` ((j, k, value) rows under a d/j_max/scaling header, d = 1).

Experiment kinds are the keys of ``EXPERIMENTS``, truth kinds those of
``TRUTHS``.  ``validate`` parses a config (keys, types, defaults and ranges;
unknown keys are rejected at every level), then calls the kind's build, the
one builder of its run, and discards the run: a Monte Carlo kind builds its
``EstimatorSpec``, filter, every truth the run estimates and the plan of its
replicates (``rates._plan``), which the run then executes, the other kinds
compute their tables, so ``validate`` refuses what ``run`` would fail on.
``report`` parses the stored manifest and derives the verdicts from the
stored tables exactly as ``run`` does from the files it writes.  Exit
status: the count of failed verdicts, capped at 100; EXIT_CONFIG_ERROR (101)
for an invalid or unreadable config, flag or run directory (one ``error:``
line on stderr); EXIT_INTERNAL_ERROR (102) otherwise (traceback on stderr).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import json
import math
import platform  # loaded already by numpy, which the package imports first
import sys
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from inspect import Parameter, signature
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, recordio
from .dyadic import MAX_DEPTH, CoefficientTree
from .generic import GenericFunctionSpec, build_g, g_term, weak_exclusion_witness
from .rates import (
    ESTIMATOR_KINDS,
    MIN_FIT_ROWS,
    EstimatorSpec,
    RiskRow,
    RiskTable,
    _plan,
    fit_slope,
    generic_alpha,
    minimax_rate,
)
from .spaces import SmoothnessParams, empirical_scaling, theoretical_scaling
from .truths import ShellTerm, _unit_term, bump_tree, density_truth_tree, shell_sum
from .wavelet import _loss_bound, get_filter

EXIT_CONFIG_ERROR = 101
EXIT_INTERNAL_ERROR = 102

atexit.register(gc.freeze)  # exit's final collections then skip the imports' long-lived heap


class ConfigError(ValueError):
    """A config failed validation; the message names the offending field."""


_INVALID = (TypeError, ValueError, AttributeError, OverflowError)  # what an invalid config raises


@contextmanager
def _naming(key: str, errors=(ValueError,)):
    """Turn the errors raised inside, but a ConfigError, into a ConfigError naming key."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment; the field names are the config keys and their
    defaults the top-level defaults.  A kind sets only the fields it reads; no
    config sets output_dir and threads, which run's caller sets with replace."""

    experiment_kind: str
    smoothness: SmoothnessParams
    truth_spec: dict = field(default_factory=dict)
    estimator_spec: dict = field(default_factory=dict)
    n_grid: tuple[int, ...] = ()
    replicates: int = 32
    master_seed: int = 0
    filter: str = "db2"
    j_max: int = 14
    output_dir: str = "out"
    probe_alphas: tuple[float, ...] = (-1.0, -0.3, 0.3, 1.0)
    scaling_p: tuple[float, ...] = (1.0, 2.0, 4.0)
    scaling_window: tuple[int, int] = (4, 14)
    witness_eps: float = 0.1
    witness_t_range: tuple[int, int] = (10, 30)
    tolerances: dict = field(default_factory=dict)
    threads: int = 1

    def resolved(self) -> dict:
        """JSON form of the keys the kind reads; round-trips through validate_config."""
        reads = EXPERIMENTS[self.experiment_kind].reads  # the tuples become JSON lists
        out = {key: value for key, value in asdict(self).items() if key in reads}
        out["smoothness"] = {key: "inf" if math.isinf(value) else value
                             for key, value in out["smoothness"].items()}
        return out


class RunReport(NamedTuple):
    manifest: dict
    manifest_hash: str
    tables: tuple[str, ...]
    verdicts: tuple[dict, ...]


def _parse(kind: str, value, name: str):
    """value read as the field annotation kind; otherwise a ConfigError naming the key."""
    if kind == "SmoothnessParams":
        kinds = {f.name: f.type for f in fields(SmoothnessParams)}
        return SmoothnessParams(**_parse_keys(_parse("dict", value, name), kinds, name + ".", kind))
    if kind == "float | None":  # a None default: null, or a number
        return None if value is None else _parse("float", value, name)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "float":  # a finite JSON number; r may be infinite, as resolved() writes it
        if name == "smoothness.r" and value in ("inf", math.inf):
            return math.inf
        if number and math.isfinite(value):
            return float(value)
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{name}: expected true or false, got {value!r}")
        return value
    if kind == "int":  # strictly: 2.7, true and "2" are not integers
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    container = {"str": str, "dict": dict}.get(kind, list)  # lists become tuple fields
    if not isinstance(value, container) or kind == "tuple[int, int]" and len(value) != 2:
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")
    if container is list:
        if not value:
            raise ConfigError(f"{name} must be nonempty")
        item = "int" if kind.startswith("tuple[int") else "float"
        return tuple(_parse(item, v, name) for v in value)
    return container(value)


def _parse_keys(raw: dict, kinds: dict, prefix: str, reader: str) -> dict:
    """raw's values parsed by kinds, key -> _parse kind; other keys are errors
    naming the key and its reader."""
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: {reader} does not read it; "
                          f"it reads {list(kinds)}")
    return {key: _parse(kinds[key], value, prefix + key) for key, value in raw.items()}


def _parse_section(raw: dict, defaults: dict, name: str, reader: str) -> dict:
    """raw parsed by the type of each key's default (None: null or a number;
    Parameter.empty: required text), with every default filled in."""
    kinds = {key: {None: "float | None", Parameter.empty: "str"}.get(d, type(d).__name__)
             for key, d in defaults.items()}
    spec = {**defaults, **_parse_keys(raw, kinds, name + ".", reader)}
    missing = [key for key, value in spec.items() if value is Parameter.empty]
    if missing:
        raise ConfigError(f"{name}.{missing[0]}: {reader} needs it")
    return spec


def _parse_object(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def validate_config(raw_text: str) -> ExperimentConfig:
    """Parse a JSON experiment config (_parsed) and build its run as run does
    (EXPERIMENTS' build), discarding it: so it refuses what run would fail on."""
    raw = _parse_object(raw_text)
    with _naming("invalid config", _INVALID):
        config = _parsed(raw)
        EXPERIMENTS[config.experiment_kind].build(config)
    return config


def _parsed(raw: dict) -> ExperimentConfig:
    """The config of a JSON object, applying defaults and building nothing but
    the filter whose name it stores (get_filter's spelling).  The top level
    holds the keys the kind's EXPERIMENTS entry reads; a Monte Carlo kind's
    sections fill in the EstimatorSpec fields its estimator reads (kind
    threshold_hard) and the keyword parameters of its TRUTHS builder (kind
    generic_g), and every kind its tolerances.  Defaults fix each value's type.
    Rejects unknown keys at every level, values of the wrong type and values
    out of range: s <= d/r, a negative tolerance and, for a Monte Carlo kind,
    among others an unknown filter, an n_grid too short to fit and replicates
    < 2."""
    kind = _parse("str", raw.get("experiment_kind"), "experiment_kind")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"experiment_kind must be one of {tuple(EXPERIMENTS)}, got {kind!r}")
    experiment = EXPERIMENTS[kind]
    kinds = {f.name: f.type for f in fields(ExperimentConfig) if f.name in experiment.reads}
    values = _parse_keys(raw, kinds, "", f"experiment {kind!r}")
    if "smoothness" not in values:
        raise ConfigError(f"smoothness: experiment {kind!r} needs it")
    config = ExperimentConfig(**values)
    if "j_max" in values and not 1 <= config.j_max <= MAX_DEPTH:
        raise ConfigError(f"j_max must lie in [1, {MAX_DEPTH}], got {config.j_max}")
    if experiment.model is not None:
        config = _with_model(config)
    config = replace(config, tolerances=_parse_section(
        config.tolerances, experiment.tolerances, "tolerances", f"experiment {kind!r}"))
    for key, value in config.tolerances.items():
        # distances >= 0; an R^2 floor in (0, 1], as a floor of 0 passes every fit
        floor = key == "r_squared"
        if isinstance(value, float) and not (0.0 < value <= 1.0 if floor else 0.0 <= value):
            raise ConfigError(f"tolerances.{key}: {value!r} lies outside "
                              + ("(0, 1]" if floor else "[0, inf]"))
    return config


def _with_model(config: ExperimentConfig) -> ExperimentConfig:
    """A Monte Carlo kind's config, its fields checked, its filter named as
    get_filter names it and its two specs parsed."""
    spec = dict(config.estimator_spec)
    estimator_kind = _parse("str", spec.pop("kind", "threshold_hard"), "estimator_spec.kind")
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ConfigError(f"estimator_spec.kind must be one of {tuple(ESTIMATOR_KINDS)}, "
                          f"got {estimator_kind!r}")
    read = {f.name: f.default for f in fields(EstimatorSpec)
            if f.name in ESTIMATOR_KINDS[estimator_kind].params}
    config = replace(config, estimator_spec={"kind": estimator_kind, **_parse_section(
        spec, read, "estimator_spec", f"estimator {estimator_kind!r}")})

    ns = config.n_grid  # the run fits a slope to one risk per n
    if len(ns) < MIN_FIT_ROWS or ns[0] < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"n_grid must hold at least {MIN_FIT_ROWS} sizes, strictly increasing "
                          f"from at least 2, got {list(ns)}")
    if config.replicates < 2:
        raise ConfigError("replicates must be >= 2: the risk standard error needs two")
    if config.master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {config.master_seed}")
    try:  # the manifest holds the one spelling get_filter names a filter by
        config = replace(config, filter=get_filter(config.filter).name)
    except KeyError as exc:
        raise ConfigError(f"filter: {exc.args[0]}") from None

    kind, spec = config.experiment_kind, dict(config.truth_spec)
    truth_kind = _parse("str", spec.pop("kind", "generic_g"), "truth_spec.kind")
    if truth_kind not in TRUTHS:
        raise ConfigError(f"truth_spec.kind must be one of {tuple(TRUTHS)}, got {truth_kind!r}")
    _, *keys = signature(TRUTHS[truth_kind].build).parameters.values()
    read = {key.name: key.default for key in keys}
    if kind == "probe_sweep":  # the sweep sets the line's alpha from probe_alphas
        read.pop("probe_alpha", None)
    spec = _parse_section(spec, read, "truth_spec", f"truth {truth_kind!r} of {kind}")
    return replace(config, truth_spec={"kind": truth_kind, **spec})


def _generic_g(config, probe_alpha=0.7, base_amplitude=0.0, dither=0.0, j_min=0):
    sm = config.smoothness  # the probe line: alpha * g plus a shell
    return shell_sum(sm.s, sm.r, config.j_max, [g_term(sm.r, probe_alpha),
                                                ShellTerm(base_amplitude, 0.0, j_min, dither)])


def _tree_file(config, path):
    """The file's tree as a truth of the config's j_max; a row past it is refused."""
    tree = recordio.read_tree(path)
    return CoefficientTree(tree.d, config.j_max, tree.scaling, tree.levels)


class Truth(NamedTuple):
    """A truth kind.  build(config, **spec) -> tree, whose keyword parameters
    are the kind's truth_spec keys with defaults that fix their types (a key
    without one is required text), raises ValueError or OSError for a truth it
    cannot build; the run's build calls it for every truth the run estimates,
    at validate too, and report never calls it.  Every kind runs under either
    model; wavelet_part: a density experiment estimates 1 + tree."""

    build: Callable
    wavelet_part: bool = True


TRUTHS = {
    "generic_g": Truth(_generic_g),
    "explicit_tree_file": Truth(_tree_file, wavelet_part=False),
    "uniform_density": Truth(lambda config: CoefficientTree(1, config.j_max, 1.0),
                             wavelet_part=False),
    "custom_bump": Truth(lambda config, level=1, position=0, amplitude=1.0: bump_tree(
        config.smoothness.d, config.j_max, level, position, amplitude)),
}


def _truth(config: ExperimentConfig, **overrides) -> CoefficientTree:
    spec = {**config.truth_spec, **overrides}
    truth = TRUTHS[spec.pop("kind")]
    tree = truth.build(config, **spec)
    density = EXPERIMENTS[config.experiment_kind].model == "density"
    return density_truth_tree(tree) if density and truth.wavelet_part else tree


def _alpha_label(alpha: float) -> str:
    return f"alpha{alpha:+.2f}".replace("+", "p").replace("-", "m").replace(".", "_")


def _verdict(criterion, measured, expected, tolerance, passed) -> dict:
    return {"criterion": criterion, "measured": float(measured), "expected": float(expected),
            "tolerance": float(tolerance), "pass": bool(passed)}


def _regime(config: ExperimentConfig):
    return generic_alpha(ESTIMATOR_KINDS[config.estimator_spec["kind"]].family, config.smoothness)


def _risk_name(config: ExperimentConfig, label: str, table: str = "risk") -> str:
    return f"{table}_{config.estimator_spec['kind']}{label}.csv"


def _monte_carlo_build(config: ExperimentConfig, truths=(("", "truth_spec", {}),)):
    """Build what a Monte Carlo run builds before its first replicate: the
    EstimatorSpec, the filter, each truth (label, the key naming it if its
    _loss_bound overflows, its _truth overrides; a rate fit's one truth by
    default) and the plan of the replicates (rates._plan, whose refusals name
    their keys: a density truth's law, a threshold that underflows, a run too
    large, a loss that could overflow).  Return the run: () -> each truth's
    risk and slope tables, named by its label, under one noise draw per (n,
    replicate)."""
    sm = config.smoothness
    estimator = EstimatorSpec(smoothness=sm, **config.estimator_spec)  # it checks its numbers
    filt = get_filter(config.filter)  # _with_model refused a name get_filter does not read
    if filt.vanishing_moments < math.ceil(sm.s):
        raise ConfigError(f"filter {config.filter!r} has {filt.vanishing_moments} vanishing "
                          "moments; the smoothness characterization needs at least "
                          f"ceil(s) = {math.ceil(sm.s)}")
    trees = []
    for _, key, overrides in truths:
        with _naming("truth_spec", (TypeError, ValueError, OSError)):
            trees.append(_truth(config, **overrides))
        if not math.isfinite(_loss_bound(trees[-1], filt, sm.p)):
            raise ConfigError(f"{key}: the truth's loss bound at p = {sm.p:g} overflows")
    execute = _plan(tuple(trees), estimator, config.n_grid, config.replicates, sm.p,
                    config.filter, EXPERIMENTS[config.experiment_kind].model, naming=_naming)

    def risk_tables():
        tables = []
        for (label, _, _), table in zip(truths, execute(config.master_seed, config.threads)):
            fit = fit_slope(table, _regime(config).normalization)
            tables += [(_risk_name(config, label), ["n", "risk", "std_error", "replicates"],
                        table.rows),
                       (_risk_name(config, label, "slope"),
                        ["normalization", "slope", "implied_alpha", "r_squared"],
                        [(fit.normalization, fit.slope, fit.implied_alpha, fit.r_squared)])]
        return tables
    return risk_tables


def _stored_fit(config: ExperimentConfig, read, label: str = ""):
    def fit(rows):  # only a table of the manifest's n_grid and replicates: 1024.5 is neither
        if [row[0] for row in rows] != list(config.n_grid):
            raise ValueError(f"its n column is not the manifest's n_grid {list(config.n_grid)}")
        if any(row[3] != config.replicates for row in rows):
            raise ValueError(f"a replicates cell is not the manifest's {config.replicates}")
        table = RiskTable(tuple(RiskRow(n, risk, se, config.replicates)
                                for n, (_, risk, se, _) in zip(config.n_grid, rows)),
                          config.smoothness.p)
        return fit_slope(table, _regime(config).normalization)

    return read(_risk_name(config, label), fit)


def _rate_fit_verdicts(config: ExperimentConfig, read) -> list[dict]:
    expected, fit = _regime(config).alpha, _stored_fit(config, read)
    implied, alpha_tol = fit.implied_alpha, config.tolerances["alpha"]
    kind = config.experiment_kind
    if config.tolerances["one_sided"]:
        name, passed = "alpha_upper", implied <= expected + alpha_tol
    else:
        name, passed = "implied_alpha", abs(implied - expected) <= alpha_tol
    verdicts = [_verdict(f"{kind}.{name}", implied, expected, alpha_tol, passed)]
    floor = config.tolerances["r_squared"]
    if floor is not None:
        verdicts.append(_verdict(f"{kind}.r_squared", fit.r_squared, floor, 0.0,
                                 fit.r_squared >= floor))
    return verdicts


def _probe_sweep_build(config: ExperimentConfig):
    labels, truths = {}, []
    for alpha in config.probe_alphas:  # each alpha's risk table is named by its label
        label = _alpha_label(alpha)
        if label in labels:
            raise ConfigError(f"probe_alphas: {labels[label]!r} and {alpha!r} share the table "
                              f"label {label!r}; alphas must differ at two decimals")
        labels[label] = alpha
        size = len(_risk_name(config, "_" + label, "slope").encode())  # its longer table name
        if size > 255:  # the longest file name most file systems take
            raise ConfigError(f"probe_alphas: {alpha!r} names a table of {size} bytes; "
                              "a file name holds at most 255")
        truths.append(("_" + label, f"probe_alphas: {alpha!r}", {"probe_alpha": alpha}))
    if config.truth_spec["kind"] != "generic_g":
        raise ConfigError("probe_sweep needs a generic_g truth, got "
                          f"{config.truth_spec['kind']!r}")
    risk_tables = _monte_carlo_build(config, truths)

    def tables():
        tables = risk_tables()  # per alpha a risk table, a slope table (implied_alpha third)
        implied = [(alpha, rows[0][2]) for alpha, (*_, rows) in zip(labels.values(), tables[1::2])]
        return tables + [("probe_sweep.csv", ["alpha", "implied_alpha"], sorted(implied))]
    return tables


def _probe_sweep_verdicts(config: ExperimentConfig, read) -> list[dict]:
    fits = [_stored_fit(config, read, "_" + _alpha_label(alpha)).implied_alpha
            for alpha in config.probe_alphas]
    spread = max(fits) - min(fits)
    spread_tol = config.tolerances["spread"]
    return [_verdict("probe_sweep.spread", spread, 0.0, spread_tol, spread <= spread_tol)]


def _scaling_build(config: ExperimentConfig):
    sm = config.smoothness
    g = build_g(GenericFunctionSpec(s=sm.s, r=sm.r, d=sm.d, j_max=config.j_max))
    rows = []
    for p in config.scaling_p:
        with _naming("scaling_p"):  # first: the estimate divides by p
            theory = theoretical_scaling(sm.s, sm.r, p, sm.d)
        with _naming("scaling_window"):
            estimate = empirical_scaling(g, p, config.scaling_window)
        rows.append((p, estimate.estimate, theory, estimate.residual))
    return lambda: [("scaling.csv", ["p", "estimate", "theory", "residual"], rows)]


def _scaling_verdicts(config: ExperimentConfig, read) -> list[dict]:
    def finite(rows):
        if not all(math.isfinite(est) for _, est, _, _ in rows):  # a run writes none
            raise ValueError("an estimate is not finite")
        return rows

    scale_tol, rows = config.tolerances["scaling"], read("scaling.csv", finite)
    return [
        _verdict(f"scaling_function.p={p:g}", est, theory, scale_tol,
                 abs(est - theory) <= scale_tol)
        for p, est, theory, _resid in rows
    ]


def _witness_build(config: ExperimentConfig):
    sm, (t_lo, t_hi) = config.smoothness, config.witness_t_range
    if not 1 <= t_lo < t_hi:
        raise ConfigError(f"witness_t_range must satisfy 1 <= lo < hi, got {[t_lo, t_hi]}")
    with _naming("witness_eps"):
        witness = weak_exclusion_witness(sm.s, sm.r, sm.p, sm.d, config.witness_eps, t_hi)
    bad = [(t, bound) for t, bound in witness if t >= t_lo and not 0.0 < bound < math.inf]
    if bad:  # the verdict fits log2 of the bound
        raise ConfigError(f"witness_t_range: the witness bound is {bad[0][1]} at t = "
                          f"{bad[0][0]}; the range must hold positive finite bounds only")
    rows = [(t, b, math.log2(b) if b > 0 else float("-inf")) for t, b in witness]
    return lambda: [("witness.csv", ["t", "bound", "log2_bound"], rows)]


def _witness_verdicts(config: ExperimentConfig, read) -> list[dict]:
    def in_range(rows):
        t_lo, t_hi = config.witness_t_range
        kept = [(t, b) for t, b, _log2_b in rows if t_lo <= t <= t_hi]
        if not all(0.0 < b < math.inf for _, b in kept):  # as _witness_build refuses them
            raise ValueError("a bound in witness_t_range is not positive and finite")
        if len(kept) < 2:
            raise ValueError(f"{len(kept)} rows lie in witness_t_range; the slope needs 2")
        return kept

    kept = read("witness.csv", in_range)
    ts = np.array([t for t, _ in kept], dtype=np.float64)
    slope = float(np.polyfit(ts, np.log2([b for _, b in kept]), 1)[0])
    target = config.witness_eps * config.smoothness.p
    rel_tol = config.tolerances["witness_rel"]
    ok = abs(slope - target) <= rel_tol * target
    return [_verdict("weak_exclusion.log2_slope", slope, target, rel_tol * target, ok)]


class Experiment(NamedTuple):
    """An experiment kind: its Monte Carlo model ("sequence", "density" or None),
    under which every estimator and truth kind runs, its own top-level keys
    (reads adds every kind's and its model's), its tolerance keys with their
    defaults, build(config), the one builder of its run: it builds and checks
    all the run builds before its first replicate (_monte_carlo_build), or
    computes the tables of a kind without a model, and returns the run, () ->
    [(file name, columns, rows)], which validate discards; and verdicts(config,
    read), read(file name, parse) giving parse(the stored table's float rows)."""

    model: str | None
    keys: tuple[str, ...]
    tolerances: dict
    build: Callable
    verdicts: Callable

    @property
    def reads(self) -> tuple[str, ...]:
        """The kind's top-level keys: every kind's, a Monte Carlo model's, its own."""
        model = ("truth_spec", "estimator_spec", "n_grid", "replicates", "master_seed",
                 "filter", "j_max") if self.model else ()
        return ("experiment_kind", "smoothness", "tolerances", *model, *self.keys)


_RATE_TOLERANCES = {"alpha": 0.08, "one_sided": False, "r_squared": None}

EXPERIMENTS = {
    "rate_fit": Experiment("sequence", (), _RATE_TOLERANCES, _monte_carlo_build,
                           _rate_fit_verdicts),
    "scaling_function": Experiment(None, ("j_max", "scaling_p", "scaling_window"),
                                   {"scaling": 0.1}, _scaling_build, _scaling_verdicts),
    "weak_exclusion": Experiment(None, ("witness_eps", "witness_t_range"), {"witness_rel": 0.2},
                                 _witness_build, _witness_verdicts),
    "probe_sweep": Experiment("sequence", ("probe_alphas",), {"spread": 0.05},
                              _probe_sweep_build, _probe_sweep_verdicts),
    "density_rate_fit": Experiment("density", (), _RATE_TOLERANCES, _monte_carlo_build,
                                   _rate_fit_verdicts),
}

_SEEDED_KINDS = ", ".join(kind for kind, experiment in EXPERIMENTS.items()
                          if "master_seed" in experiment.reads)


def _verdicts(config: ExperimentConfig, out_dir: Path, mh: str) -> list[dict]:
    def read(name: str, parse=lambda rows: rows):
        try:
            _, rows = recordio.read_table(out_dir / name, mh)  # a table of this run
            values = [[float(v) for v in row] for row in rows]
            if any(math.isnan(v) for row in values for v in row):  # a run writes +-inf, never nan
                raise ValueError("a cell holds nan")
            return parse(values)
        except (OSError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ConfigError(f"damaged table {out_dir / name}: {exc}") from None

    return EXPERIMENTS[config.experiment_kind].verdicts(config, read)


def run(config: ExperimentConfig) -> RunReport:
    """Build the configured experiment's run with its kind's build, whose
    errors are config errors, and empty the shell-term cache its truths
    filled (truths._unit_term: validate's build and run's share it, no
    replicate reads it); then execute the run, its Monte Carlo replicates on
    config.threads worker processes (at most one per cpu): this one and
    config.threads - 1 forked children; write tables, manifest and verdicts
    into config.output_dir."""
    if config.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {config.threads}")
    with _naming("invalid config", _INVALID):
        execute = EXPERIMENTS[config.experiment_kind].build(config)
    _unit_term.cache_clear()  # the truths are built: no replicate, nor forked worker, holds terms
    manifest = config.resolved()  # the science; how the run was executed is not hashed
    execution = {"threads": config.threads, "output_dir": config.output_dir,
                 "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                 "waverates": __version__, "system": platform.system(),
                 "machine": platform.machine(), "release": platform.release()}
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    mh = hashlib.sha256(canonical.encode()).hexdigest()
    tables = execute()
    out_dir = Path(config.output_dir)  # made only now: a run that fails leaves none behind
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns, rows in tables:
        recordio.write_table(out_dir / name, columns, rows, mh)
    verdicts = _verdicts(config, out_dir, mh)
    for name, payload in (("manifest.json", {"manifest": manifest, "hash": mh,
                                              "execution": execution}),
                          ("report.json", {"hash": mh, "verdicts": verdicts})):
        (out_dir / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return RunReport(manifest=manifest, manifest_hash=mh,
                     tables=tuple(str(out_dir / name) for name, _, _ in tables),
                     verdicts=tuple(verdicts))


def report_from_dir(out_dir) -> list[dict]:
    """Re-render verdicts from the stored tables and parsed manifest of a completed
    run, building nothing; any fault in those files is a ConfigError naming the
    directory."""
    out_dir = Path(out_dir)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if not (isinstance(manifest, dict) and isinstance(manifest.get("manifest"), dict)
                and isinstance(manifest.get("hash"), str)):
            raise ValueError("manifest.json holds no manifest object with a hash")
        config = _parsed(manifest["manifest"])
    except (OSError, *_INVALID) as exc:  # ValueError includes ConfigError
        raise ConfigError(f"cannot read run directory {out_dir}: {exc}") from None
    with _naming(f"cannot read run directory {out_dir}"):  # a damaged table names its path
        return _verdicts(config, out_dir, manifest["hash"])


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
    run_p.add_argument("--seed", type=int, default=None,
                       help=f"override the config's master_seed; the experiment kinds "
                            f"{_SEEDED_KINDS} read it")
    run_p.add_argument("--out", default=None)  # out/<config file stem>
    run_p.add_argument("--threads", type=int, default=1,
                       help="number of processes that run the Monte Carlo replicates, "
                            "this one and THREADS - 1 forked children, capped at the cpu "
                            "count (default 1: this one alone); the tables do not depend "
                            "on it")

    val_p = sub.add_parser("validate", help="validate a config and print the resolved form")
    val_p.add_argument("--config", required=True)

    g_p = sub.add_parser("build-g", help="dump the saturating tree to CSV")
    g_p.add_argument("--s", type=float, required=True)
    g_p.add_argument("--r", type=float, required=True)
    g_p.add_argument("--j-max", type=int, default=12)
    g_p.add_argument("--out", required=True)

    rates_p = sub.add_parser("rates", help="print the theoretical rate table")
    rates_p.add_argument("--s", type=float, required=True)
    rates_p.add_argument("--r", type=float, required=True)
    rates_p.add_argument("--p", type=float, required=True)
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


def _command(args) -> int:
    if args.command == "validate":
        config = validate_config(_read_config(args.config))
        print(json.dumps(config.resolved(), sort_keys=True, indent=2))
        return 0

    if args.command == "run":
        raw = _parse_object(_read_config(args.config))
        if args.seed is not None:
            kind = raw.get("experiment_kind")
            if kind in EXPERIMENTS and "master_seed" not in EXPERIMENTS[kind].reads:
                raise ConfigError(f"--seed: experiment {kind!r} reads no seed; only "
                                  f"{_SEEDED_KINDS} do")
            raw["master_seed"] = args.seed
        out = args.out if args.out is not None else f"out/{Path(args.config).stem}"
        with _naming("invalid config", _INVALID):
            config = _parsed(raw)
        report = run(replace(config, output_dir=out, threads=args.threads))
        print(f"manifest hash: {report.manifest_hash}")
        for path in report.tables:
            print(f"wrote {path}")
        return _print_verdicts(report.verdicts)

    if args.command == "build-g":
        with _naming("build-g"):
            g = build_g(GenericFunctionSpec(s=args.s, r=args.r, d=1, j_max=args.j_max))
        with _naming("--out", (OSError,)):
            recordio.write_tree(g, args.out)
        print(f"wrote {args.out}")
        return 0

    if args.command == "rates":
        if args.n < 2:  # the n / log n normalization needs n >= 2
            raise ConfigError(f"--n must be >= 2, got {args.n}")
        with _naming("rates"):
            params = SmoothnessParams(s=args.s, r=args.r, p=args.p)
        print(f"parameters: s={args.s} r={args.r} p={args.p} d={params.d} (n={args.n})")
        mm, mm_value = minimax_rate(params, args.n)
        lin = generic_alpha("linear", params)  # normalized by n: no log factor
        for label, reg, value in (("minimax:       ", mm, mm_value),
                                  ("linear minimax:", lin, args.n ** (-params.p * lin.alpha))):
            print(f"{label} branch={reg.branch:6s} alpha={reg.alpha:.6f} "
                  f"norm={reg.normalization:12s} value={value:.6e}")
        for family in ("linear", "threshold"):
            reg = generic_alpha(family, params)
            print(f"generic {family:9s} branch={reg.branch:6s} alpha={reg.alpha:.6f} "
                  f"norm={reg.normalization:12s} (alpha_tilde={reg.alpha_tilde:.6f})")
        return 0

    return _print_verdicts(report_from_dir(args.dir))  # report


if __name__ == "__main__":
    sys.exit(main())
