import ast
import functools
import importlib
import importlib.util
import itertools
import json
import math
import os
import platform
import random
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from waverates import __version__, models, rates, recordio
from waverates.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXPERIMENTS,
    TRUTHS,
    ConfigError,
    _truth,
    main,
    report_from_dir,
    run,
    validate_config,
)
from waverates.dyadic import CoefficientTree
from waverates.estimators import _threshold_stack
from waverates.generic import GenericFunctionSpec, build_g
from waverates.models import DensitySampler
from waverates.truths import _unit_term, bump_tree
from waverates.wavelet import get_filter, synthesize

ROOT = Path(__file__).resolve().parent.parent
# what every manifest's execution entry records of the software and platform that ran it
PLATFORM = {"system": platform.system(), "machine": platform.machine(),
            "release": platform.release()}
SOFTWARE = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "waverates": __version__, **PLATFORM}
DENSITY_WORKLOAD = json.loads((ROOT / "perfbench" / "workloads" / "density_threshold.json")
                              .read_text())


def rate_config(**overrides):
    cfg = {
        "experiment_kind": "rate_fit",
        "smoothness": {"s": 2, "r": 2, "p": 2, "d": 1},
        "truth_spec": {"kind": "generic_g", "base_amplitude": 64.0,
                       "probe_alpha": 0.7, "dither": 2.0},
        "estimator_spec": {"kind": "threshold_hard", "kappa": 2.0},
        "n_grid": [2**8, 2**9, 2**10, 2**11, 2**12],
        "replicates": 8,
        "master_seed": 11,
        "filter": "db2",
        "j_max": 8,
    }
    cfg.update(overrides)
    return json.dumps(cfg)


def run_in(out_dir, text, threads=1):
    """run the config text as the command line does: the caller sets where and how"""
    return run(replace(validate_config(text), output_dir=str(out_dir), threads=threads))


def sweep_config(**overrides):
    # a probe sweep sets the line's alpha from probe_alphas: its truth has no probe_alpha
    truth = {"kind": "generic_g", "base_amplitude": 64.0, "dither": 2.0}
    return rate_config(**{"experiment_kind": "probe_sweep", "truth_spec": truth,
                                   **overrides})


def test_validate_minimal_config_fills_defaults(tmp_path):
    config = validate_config(rate_config())
    assert config.estimator_spec == {"kind": "threshold_hard", "kappa": 2.0}
    assert config.truth_spec == {"kind": "generic_g", "probe_alpha": 0.7, "base_amplitude": 64.0,
                                 "dither": 2.0, "j_min": 0}
    assert config.tolerances == {"alpha": 0.08, "one_sided": False, "r_squared": None}
    assert config.threads == 1


def test_validate_rejects_standing_assumption_violation(tmp_path):
    raw = rate_config()
    bad = json.loads(raw)
    bad["smoothness"]["s"] = 0.4  # s <= d/r at r = 2
    with pytest.raises(ConfigError, match="s > d/r"):
        validate_config(json.dumps(bad))


def test_validate_takes_every_estimator_and_truth_kind_under_either_model():
    # the experiment kind alone names the model
    for estimator in ({"kind": "projection"}, {"kind": "pinsker"},
                      {"kind": "threshold_hard", "kappa": 1.53},
                      {"kind": "threshold_soft", "kappa": 2.0}):
        config = validate_config(json.dumps(dict(DENSITY_WORKLOAD, estimator_spec=estimator)))
        assert estimator.items() <= config.estimator_spec.items()
    config = validate_config(rate_config(estimator_spec={"kind": "density_threshold"},
                                         truth_spec={"kind": "uniform_density"}))
    assert config.estimator_spec == {"kind": "density_threshold"}
    uniform = _truth(config)  # the constant 1 under the sequence model too
    assert uniform.scaling == 1.0 and uniform.wavelet_energy() == 0.0


def test_validate_rejects_bad_grid_and_filter(tmp_path):
    bad = json.loads(rate_config())
    bad["n_grid"] = [1024, 512]
    with pytest.raises(ConfigError, match="increasing"):
        validate_config(json.dumps(bad))
    bad = json.loads(rate_config())
    bad["filter"] = "haar"  # 1 vanishing moment < ceil(s) = 2
    with pytest.raises(ConfigError, match="vanishing moments"):
        validate_config(json.dumps(bad))
    bad = json.loads(rate_config())
    bad["truth_spec"] = {"kind": "explicit_tree_file", "path": str(tmp_path / "nope.csv")}
    with pytest.raises(ConfigError, match="No such file or directory"):
        validate_config(json.dumps(bad))


def test_validate_rejects_single_replicate(tmp_path):
    with pytest.raises(ConfigError, match="replicates must be >= 2"):
        validate_config(rate_config(replicates=1))
    # kinds without a Monte Carlo risk do not read replicates at all
    with pytest.raises(ConfigError, match="replicates: experiment 'scaling_function' does "
                                          "not read it"):
        validate_config(json.dumps(dict(SCALING, replicates=1)))


def test_run_rejects_nonpositive_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default --out is under the working directory
    for bad in (0, -4):
        with pytest.raises(ConfigError, match=f"threads must be >= 1, got {bad}"):
            run_in(tmp_path / "o", rate_config(), threads=bad)
    # main reports the --threads flag as a config error, not as a count of failed verdicts
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(rate_config())
    for bad in ("0", "-4"):
        assert main(["run", "--config", str(cfg_path), "--threads", bad]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {bad}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_validate_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="tolerances.aplha: experiment 'rate_fit' does not read"):
        validate_config(rate_config(tolerances={"aplha": 0.0}))
    # each kind accepts only its own tolerance keys
    with pytest.raises(ConfigError, match="tolerances.spread: experiment 'rate_fit' does not"):
        validate_config(rate_config(tolerances={"spread": 0.1}))
    with pytest.raises(ConfigError, match="replicate: experiment 'rate_fit' does not read it"):
        validate_config(rate_config(replicate=4))
    with pytest.raises(ConfigError, match="j_max: expected an integer"):
        validate_config(rate_config(j_max="deep"))
    # the defaults are filled in, so a default left out or written out hashes alike
    config = validate_config(rate_config(tolerances={"r_squared": 0.9}))
    assert config.resolved()["tolerances"] == {"alpha": 0.08, "one_sided": False,
                                               "r_squared": 0.9}


def test_main_exit_codes_tell_errors_from_failed_verdicts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default --out is under the working directory
    missing = str(tmp_path / "missing.json")
    assert main(["run", "--config", missing]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {missing}") and err.count("\n") == 1
    assert main(["validate", "--config", missing]) == EXIT_CONFIG_ERROR
    assert main(["report", "--dir", str(tmp_path / "nowhere")]) == EXIT_CONFIG_ERROR
    assert "error: cannot read run directory" in capsys.readouterr().err
    typo = tmp_path / "typo.json"
    typo.write_text(rate_config(tolerances={"aplha": 0.0}))
    assert main(["run", "--config", str(typo)]) == EXIT_CONFIG_ERROR
    assert "tolerances.aplha" in capsys.readouterr().err
    assert main(["run"]) == EXIT_CONFIG_ERROR  # usage error: --config is required
    assert main(["rates", "--s", "1", "--r", "1", "--p", "2"]) == EXIT_CONFIG_ERROR  # s = d/r
    # these raised ZeroDivisionError and ValueError, or printed complex "values"
    for smoothness, n in ((("2", "2", "2"), "0"), (("1.2", "1", "4"), "1"),
                          (("2", "2", "2"), "-5")):
        flags = [flag for pair in zip(("--s", "--r", "--p"), smoothness) for flag in pair]
        capsys.readouterr()
        assert main(["rates", *flags, "--n", n]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --n must be >= 2, got {n}\n"
    # build_g refuses these, s <= 1/r and a depth outside [1, 24], before writing a file
    for s, j_max, message in (("0.4", "6", "need s > 1/r"), ("2", "0", "j_min must lie in"),
                              ("2", "25", "j_max must lie in [0, 24]")):
        assert main(["build-g", "--s", s, "--r", "2", "--j-max", j_max,
                     "--out", "g.csv"]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: build-g: {message}") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["typo.json"]

    # a fault inside the run is an internal error, not a count of failed verdicts
    def broken_run(config):
        raise RuntimeError("broken engine")

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(rate_config())
    with monkeypatch.context() as patch:
        patch.setattr("waverates.cli.run", broken_run)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_INTERNAL_ERROR
    assert "RuntimeError: broken engine" in capsys.readouterr().err

    # failed verdicts are counted, by run and by report alike
    witness = dict(WITNESS, tolerances={"witness_rel": 0.0})
    cfg_path.write_text(json.dumps(witness))
    out = str(tmp_path / "wit")
    assert main(["run", "--config", str(cfg_path), "--out", out]) == 1
    assert main(["report", "--dir", out]) == 1

    # a damaged run directory is a config error naming it, or the damaged table, on one line
    def damaged(name, config_text, damage, table=None):
        run_dir = tmp_path / name
        run_in(run_dir, config_text)
        damage(run_dir)
        assert main(["report", "--dir", str(run_dir)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        named = (f"damaged table {run_dir / table}" if table
                 else f"cannot read run directory {run_dir}")
        assert err.startswith(f"error: {named}: ")
        assert err.count("\n") == 1
        return err

    def keep_rows(table, count):
        def damage(run_dir):
            lines = (run_dir / table).read_text().splitlines(keepends=True)
            (run_dir / table).write_text("".join(lines[:2 + count]))  # hash and column lines
        return damage

    for payload in ("[]", "{}"):
        err = damaged(f"manifest{len(payload)}", json.dumps(WITNESS),
                      lambda run_dir: (run_dir / "manifest.json").write_text(payload))
        assert "manifest.json holds no manifest object" in err
    err = damaged("rate", rate_config(replicates=2), keep_rows("risk_threshold_hard.csv", 2),
                  "risk_threshold_hard.csv")
    assert "its n column is not the manifest's n_grid" in err
    # 4 of the 5 rows still fit a slope, and report read the cut table as sound
    err = damaged("rate_cut", rate_config(replicates=2), keep_rows("risk_threshold_hard.csv", 4),
                  "risk_threshold_hard.csv")
    assert "its n column is not the manifest's n_grid" in err
    err = damaged("witness", json.dumps(WITNESS), keep_rows("witness.csv", 0), "witness.csv")
    assert "0 rows lie in witness_t_range" in err


def test_failed_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    # the build plans the run, so a refused sampler is a config error; a failure
    # after the build, in the run's loss sides, is internal: neither leaves a table
    class Refused:
        @staticmethod
        def from_tree(tree, filt):
            raise ValueError("sampler refused")

    def broken(*args):
        raise ValueError("loss sides broke")

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DENSITY_WORKLOAD))
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr("waverates.rates.DensitySampler", Refused)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "error: truth_spec: sampler refused\n"
    monkeypatch.setattr("waverates.rates._loss_sides", broken)
    assert validate_config(cfg_path.read_text()).replicates == 32  # the sides are not built
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL_ERROR
    assert "ValueError: loss sides broke" in capsys.readouterr().err
    assert not out.exists()


def test_validate_plans_the_run_and_run_executes_that_plan(tmp_path, capsys, monkeypatch):
    # validate builds the plan and never executes it; run builds it once and executes it
    calls, plan = [], rates._plan

    def counted(*args, **kwargs):
        calls.append("plan")
        execute = plan(*args, **kwargs)

        def counted_execute(*args):
            calls.append("execute")
            return execute(*args)
        return counted_execute

    monkeypatch.setattr("waverates.cli._plan", counted)
    density = json.dumps(dict(DENSITY_WORKLOAD, n_grid=[64, 128, 256, 512], replicates=2,
                              j_max=4))
    for name, text in (("rate", rate_config(replicates=2)),
                       ("sweep", sweep_config(replicates=2)), ("density", density)):
        (tmp_path / "cfg.json").write_text(text)
        assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == 0
        assert calls == ["plan"]
        calls.clear()
        code = main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / name)])
        assert code < EXIT_CONFIG_ERROR and calls == ["plan", "execute"], name
        calls.clear()
    capsys.readouterr()


def test_worker_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # an exception raised in a forked worker reaches the runner: exit 102, traceback
    runner = os.getpid()

    def broken(*args, **kwargs):
        if os.getpid() != runner:  # the runner's own share runs
            raise ValueError("estimator broke in a worker")
        return _threshold_stack(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("waverates.rates._threshold_stack", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(rate_config(replicates=4))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out), "--threads", "2"])
    assert code == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: estimator broke in a worker" in err
    assert not out.exists()


def test_validate_rejects_grid_losses_beyond_one_dimension(tmp_path, capsys, monkeypatch):
    # d = 2 passed validate at p = 2 and fitted no rate; every kind now takes d = 1 only
    monkeypatch.chdir(tmp_path)  # run's default --out is under the working directory
    density = _rate(experiment_kind="density_rate_fit",
                    estimator_spec={"kind": "density_threshold"})
    for raw in (_rate(), _sweep(), SCALING, WITNESS, density):
        smoothness = dict(raw["smoothness"], d=2)
        (tmp_path / "cfg.json").write_text(json.dumps(dict(raw, smoothness=smoothness)))
        for command in ("validate", "run"):
            assert main([command, "--config", "cfg.json"]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == "error: invalid config: dimension must be 1, got 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_validate_reports_parse_error_line():
    with pytest.raises(ConfigError, match="line"):
        validate_config("{\n  broken\n}")


def test_run_rate_fit_and_report_round_trip(tmp_path):
    out = tmp_path / "run1"
    report = run_in(out, rate_config(tolerances={"alpha": 0.5}))
    assert (out / "manifest.json").is_file()
    assert (out / "report.json").is_file()
    assert (out / "risk_threshold_hard.csv").is_file()
    # every table carries the manifest hash comment
    for table in report.tables:
        with open(table) as fh:
            assert f"# manifest_hash={report.manifest_hash}" in fh.readline()
    # nothing written outside the output directory
    assert {p.name for p in tmp_path.iterdir()} == {"run1"}
    # re-rendered verdicts match the stored run exactly
    assert report_from_dir(out) == list(report.verdicts)


def test_run_density_rate_fit_and_report_round_trip(tmp_path):
    out = tmp_path / "dens"
    raw = json.loads(rate_config(experiment_kind="density_rate_fit", replicates=4, j_max=6,
                                 n_grid=[256, 512, 1024, 2048]))
    raw["truth_spec"] = {"kind": "generic_g", "base_amplitude": 1.0, "probe_alpha": 0.0,
                         "dither": 2.0, "j_min": 2}
    raw["estimator_spec"] = {"kind": "density_threshold"}
    report = run_in(out, json.dumps(raw))
    assert [v["criterion"] for v in report.verdicts] == ["density_rate_fit.implied_alpha"]
    assert report.verdicts[0]["tolerance"] == 0.08  # the kind's default, filled in
    assert (out / "risk_density_threshold.csv").is_file()
    assert (out / "slope_density_threshold.csv").is_file()
    assert report_from_dir(out) == list(report.verdicts)


def test_execution_records_the_platform_outside_the_hash(tmp_path):
    # how a run was executed enters neither the manifest hash, pinned here for
    # one config as it stood before the platform was recorded, nor the verdicts
    out = tmp_path / "run"
    report = run_in(out, rate_config(replicates=4))
    stored = json.loads((out / "manifest.json").read_text())
    assert {key: stored["execution"][key] for key in PLATFORM} == PLATFORM
    assert report.manifest_hash == stored["hash"] == (
        "2704cf288fe20da74a8cb15194a08a8c8cce0d95d5c03390e19906049a88f55e")
    del stored["execution"]  # report reads none of it
    (out / "manifest.json").write_text(json.dumps(stored))
    assert report_from_dir(out) == list(report.verdicts)


def test_run_is_byte_identical_across_reruns(tmp_path, monkeypatch):
    # the hash names the science: neither the output path nor the thread count enters it
    runs = [(tmp_path / "a", 1), (tmp_path / "b", 1), (tmp_path / "a", 3), (tmp_path / "c", 3)]
    outputs = []
    for out, threads in runs:
        report = run_in(out, rate_config(replicates=4), threads=threads)
        stored = json.loads((out / "manifest.json").read_text())
        assert stored["execution"] == {"threads": threads, "output_dir": str(out), **SOFTWARE}
        assert stored["hash"] == report.manifest_hash and "threads" not in stored["manifest"]
        names = sorted(Path(table).name for table in report.tables) + ["report.json"]
        outputs.append((report.manifest_hash, {name: (out / name).read_bytes() for name in names}))
    assert all(output == outputs[0] for output in outputs[1:])
    assert sorted(outputs[0][1]) == ["report.json", "risk_threshold_hard.csv",
                                     "slope_threshold_hard.csv"]
    # a tree file is read at the config's j_max: written at a shallower depth, the
    # tree runs as it does written at j_max, under either model and at p = 4
    monkeypatch.chdir(tmp_path)
    truth = CoefficientTree(1, 3, 1.0, {1: [0.05, 0.0], 3: [0.0] * 5 + [0.1, 0.0, 0.0]})
    tree_file = {"kind": "explicit_tree_file", "path": "t.csv"}
    configs = {"sequence": (rate_config(replicates=4, truth_spec=tree_file), 8),
               "p4": (rate_config(replicates=4, truth_spec=tree_file,
                                  smoothness={"s": 2, "r": 2, "p": 4, "d": 1}), 8),
               "density": (json.dumps(dict(DENSITY_WORKLOAD, n_grid=[64, 128, 256, 512],
                                           replicates=2, j_max=4, truth_spec=tree_file)), 4)}
    for name, (text, j_max) in configs.items():
        outputs = []
        for depth in (3, j_max):
            recordio.write_tree(CoefficientTree(1, depth, truth.scaling, truth.levels), "t.csv")
            out = tmp_path / f"{name}_{depth}"
            run_in(out, text)  # the manifest alone names the output directory
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()
                            if path.name != "manifest.json"})
        assert outputs[0] == outputs[1] and len(outputs[0]) == 3


def test_run_probe_sweep_spread_verdict(tmp_path):
    out = tmp_path / "sweep"
    raw = json.loads(sweep_config(replicates=6))
    raw["probe_alphas"] = [-1.0, 0.5]
    raw["tolerances"] = {"spread": 0.2}
    report = run_in(out, json.dumps(raw))
    verdict = report.verdicts[0]
    assert verdict["criterion"] == "probe_sweep.spread"
    assert (out / "probe_sweep.csv").is_file()
    assert report_from_dir(out) == list(report.verdicts)


def test_run_scaling_and_witness_kinds(tmp_path):
    # neither kind reads a filter, so s = 3 needs none with three vanishing moments
    for s in (2, 3):
        raw = {
            "experiment_kind": "scaling_function",
            "smoothness": {"s": s, "r": 2, "p": 2, "d": 1},
            "j_max": 14,
            "scaling_p": [1.0, 2.0, 4.0],
            "scaling_window": [4, 14],
        }
        report = run_in(tmp_path / f"scal{s}", json.dumps(raw))
        assert len(report.verdicts) == 3 and all(v["pass"] for v in report.verdicts)
        assert report_from_dir(tmp_path / f"scal{s}") == list(report.verdicts)

        raw = {
            "experiment_kind": "weak_exclusion",
            "smoothness": {"s": s, "r": 2, "p": 2, "d": 1},
            "witness_eps": 0.1,
            "witness_t_range": [10, 30],
        }
        report = run_in(tmp_path / f"wit{s}", json.dumps(raw))
        assert report.verdicts[0]["pass"]
        assert report_from_dir(tmp_path / f"wit{s}") == list(report.verdicts)


RATES_OUTPUT = {
    ("2", "2", "2"): """\
parameters: s=2.0 r=2.0 p=2.0 d=1 (n=16384)
minimax:        branch=dense  alpha=0.400000 norm=n            value=4.250735e-04
linear minimax: branch=dense  alpha=0.400000 norm=n            value=4.250735e-04
generic linear    branch=dense  alpha=0.400000 norm=n            (alpha_tilde=0.800000)
generic threshold branch=dense  alpha=0.400000 norm=n_over_log_n (alpha_tilde=0.800000)
""",
    ("1.2", "1", "4"): """\
parameters: s=1.2 r=1.0 p=4.0 d=1 (n=16384)
minimax:        branch=sparse alpha=0.321429 norm=n_over_log_n value=7.085986e-05
linear minimax: branch=sparse alpha=0.236842 norm=n            value=1.017166e-04
generic linear    branch=sparse alpha=0.236842 norm=n            (alpha_tilde=0.473684)
generic threshold branch=sparse alpha=0.321429 norm=n_over_log_n (alpha_tilde=0.642857)
""",
}


@pytest.mark.parametrize("srp", sorted(RATES_OUTPUT))
def test_rates_prints_the_closed_form_table(srp, capsys):
    s, r, p = srp
    assert main(["rates", "--s", s, "--r", r, "--p", p]) == 0
    assert capsys.readouterr().out == RATES_OUTPUT[srp]


def test_build_g_to_a_path_it_cannot_write_is_a_flag_error(tmp_path, capsys):
    # was an internal error, exit 102 with a traceback
    for out in (tmp_path / "missing" / "g.csv", tmp_path):  # no such directory; a directory
        assert main(["build-g", "--s", "2", "--r", "2", "--j-max", "4",
                     "--out", str(out)]) == EXIT_CONFIG_ERROR
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: --out: ") and err.count("\n") == 1
        assert str(out) in err
    assert list(tmp_path.iterdir()) == []


def test_main_subcommands(tmp_path, capsys, monkeypatch):
    # build-g: writes a loadable record stream
    g_path = tmp_path / "g.csv"
    assert main(["build-g", "--s", "2", "--r", "2", "--j-max", "6", "--out", str(g_path)]) == 0
    tree = recordio.read_tree(g_path)
    want = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=6))
    assert abs(tree.get(1, 1) - want.get(1, 1)) < 1e-15

    # validate: prints resolved config, exit 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(rate_config(replicates=4))
    assert main(["validate", "--config", str(cfg_path)]) == 0

    # run with flags; exit code counts failed verdicts (tolerance huge: 0)
    cfg_path.write_text(rate_config(replicates=4, tolerances={"alpha": 10.0}))
    out = tmp_path / "cli_out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "3",
                 "--threads", "2"])
    assert code == 0
    stored = json.loads((out / "manifest.json").read_text())
    assert stored["execution"] == {"threads": 2, "output_dir": str(out), **SOFTWARE}
    assert stored["manifest"]["master_seed"] == 3

    # report: re-render from the stored directory
    assert main(["report", "--dir", str(out)]) == 0

    # without flags: out/<config file stem> under the working directory, one thread
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    stored = json.loads((tmp_path / "out" / "cfg" / "manifest.json").read_text())
    assert stored["execution"] == {"threads": 1, "output_dir": "out/cfg", **SOFTWARE}
    assert stored["manifest"]["master_seed"] == 11


DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.json"))
DEMO = {path.stem: json.loads(path.read_text()) for path in DEMO_CONFIGS}


_BASE_KEYS = {"experiment_kind", "smoothness", "tolerances"}
_MODEL_KEYS = {"truth_spec", "estimator_spec", "n_grid", "replicates", "master_seed", "filter",
               "j_max"}
# the keys of each kind: the config reads these and the manifest hashes these
MANIFEST_KEYS = {
    "rate_fit": _BASE_KEYS | _MODEL_KEYS,
    "density_rate_fit": _BASE_KEYS | _MODEL_KEYS,
    "probe_sweep": _BASE_KEYS | _MODEL_KEYS | {"probe_alphas"},
    "scaling_function": _BASE_KEYS | {"j_max", "scaling_p", "scaling_window"},
    "weak_exclusion": _BASE_KEYS | {"witness_eps", "witness_t_range"},
}


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_configs_round_trip(path):
    config = validate_config(path.read_text())
    assert validate_config(json.dumps(config.resolved())) == config
    reads = EXPERIMENTS[config.experiment_kind].reads
    assert set(config.resolved()) == set(reads) == MANIFEST_KEYS[config.experiment_kind]


SCALING = {"experiment_kind": "scaling_function", "smoothness": {"s": 2, "r": 2, "p": 2},
           "j_max": 6, "scaling_window": [2, 6]}
WITNESS = {"experiment_kind": "weak_exclusion", "smoothness": {"s": 2, "r": 2, "p": 2}}


def _rate(**overrides):
    return json.loads(rate_config(**overrides))


def _sweep(**overrides):
    return json.loads(sweep_config(**overrides))


def _p4_rate(probe_alpha):
    demo = DEMO["sparse_linear_rate"]  # p = 4
    return dict(demo, truth_spec=dict(demo["truth_spec"], probe_alpha=probe_alpha))


# (config, the key its error line must name[, run flags]); each passed validate
# but broke or vacuously passed run, or entered the manifest hash while nothing
# read it, before these keys were checked
REJECTED = {
    "smoothness_typo": (_rate(smoothness={"s": 2, "r": 2, "p": 2, "dd": 2}), "smoothness.dd"),
    "truth_typo": (_rate(truth_spec={"kind": "generic_g", "base_amplitud": 1}),
                   "truth_spec.base_amplitud: truth 'generic_g' of rate_fit does not read it"),
    "missing_tree_path": (_rate(truth_spec={"kind": "explicit_tree_file"}),
                          "truth_spec.path: truth 'explicit_tree_file' of rate_fit needs it"),
    "estimator_typo": (_rate(estimator_spec={"kapa": 3}), "kapa"),
    "fractional_replicates": (_rate(replicates=2.7), "replicates"),
    "boolean_j_max": (_rate(j_max=True), "j_max"),
    "window_above_j_max": (dict(SCALING, scaling_window=[2, 7]), "scaling_window"),
    "window_too_short": (dict(SCALING, scaling_window=[5, 6]), "scaling_window"),
    "empty_scaling_p": (dict(SCALING, scaling_p=[]), "scaling_p"),
    "eps_too_large": (dict(WITNESS, witness_eps=0.3), "witness_eps"),
    "reversed_t_range": (dict(WITNESS, witness_t_range=[30, 10]), "witness_t_range"),
    "zero_witness_bound": (dict(WITNESS, witness_t_range=[1, 30]), "witness_t_range"),
    "j_min_above_j_max": (_rate(j_max=6, truth_spec={"kind": "generic_g", "j_min": 20}),
                          "j_min must lie in [0, 6]"),
    "bump_level_above_j_max": (_rate(j_max=6, truth_spec={"kind": "custom_bump", "level": 9}),
                               "level 9 outside [0, 6]"),
    "bump_position_outside_level": (_rate(truth_spec={"kind": "custom_bump", "level": 2,
                                                      "position": 4}),
                                    "position (2, 4) outside the grid"),
    "text_amplitude": (_rate(truth_spec={"kind": "generic_g", "base_amplitude": "big"}),
                       "truth_spec"),
    "fractional_bump_level": (_rate(truth_spec={"kind": "custom_bump", "level": 1.5}), "level"),
    "boolean_bump_position": (_rate(truth_spec={"kind": "custom_bump", "position": True}),
                              "position"),
    "fractional_j_min": (_rate(truth_spec={"kind": "generic_g", "j_min": 2.7}), "j_min"),
    "empty_probe_alphas": (_sweep(probe_alphas=[]), "probe_alphas"),
    # one risk table per two-decimal label: 0.3 and 0.301 would share one file
    "colliding_probe_alphas": (_sweep(probe_alphas=[0.3, 0.301, -1.0]), "probe_alphas"),
    "duplicate_probe_alphas": (_sweep(probe_alphas=[0.5, 0.5]), "probe_alphas"),
    # a label holds every digit of its alpha: run exited 102 writing a table whose
    # name was longer than a file name may be
    "probe_alpha_names_too_long": (_sweep(probe_alphas=[-1e300, 1e300, 0.3, 1.0]),
                                   "probe_alphas: -1e+300 names a table of 3"),
    # the energy of alpha * g overflows: run exited 102 in RiskTable, a risk being inf
    "probe_line_energy_overflows": (_sweep(probe_alphas=[-1e200, 1e200, 0.3, 1.0]),
                                    "probe_alphas: -1e+200: the truth's loss bound at p = 2 "
                                    "overflows"),
    # so does the p = 4 loss of 1e80 * g, its bound M^4 overflowing first
    "p4_loss_bound_overflows": (_p4_rate(1e80),
                                "truth_spec: the truth's loss bound at p = 4 overflows"),
    "probe_without_line": (_sweep(truth_spec={"kind": "custom_bump"}), "generic_g"),
    "zero_kappa": (_rate(estimator_spec={"kind": "threshold_hard", "kappa": 0}), "kappa"),
    "negative_pinsker_order": (_rate(estimator_spec={"kind": "pinsker", "pinsker_order": -2}),
                               "pinsker_order"),
    "text_fixed_m_n": (_rate(estimator_spec={"kind": "projection", "fixed_m_n": "abc"}),
                       "fixed_m_n"),
    # parameters the estimator kind does not read would enter the manifest unused
    "unread_density_kappa": (_rate(experiment_kind="density_rate_fit",
                                   estimator_spec={"kind": "density_threshold", "kappa": 9.0}),
                             "estimator_spec.kappa"),
    "unread_fixed_m_n": (_rate(estimator_spec={"kind": "threshold_hard", "fixed_m_n": 8}),
                         "estimator_spec.fixed_m_n"),
    "unread_pinsker_order": (_rate(estimator_spec={"kind": "threshold_hard",
                                                   "pinsker_order": 3}),
                             "estimator_spec.pinsker_order"),
    "unread_projection_kappa": (_rate(estimator_spec={"kind": "projection", "kappa": 2.0}),
                                "estimator_spec.kappa"),
    "negative_master_seed": (_rate(master_seed=-3), "master_seed"),
    # smoothness is the top-level key; EstimatorSpec must not get it twice
    "estimator_smoothness": (_rate(estimator_spec={"kind": "projection", "smoothness": {"s": 1}}),
                             "estimator_spec.smoothness: estimator 'projection' does not read"),
    "unknown_estimator_kind": (_rate(estimator_spec={"kind": "wiener"}), "estimator_spec.kind"),
    # each kind reads only its own top-level keys; a rate fit ran one truth, not the alphas
    "probe_alphas_in_rate_fit": (_rate(probe_alphas=[1.0]),
                                 "probe_alphas: experiment 'rate_fit' does not read it; it "
                                 "reads ['experiment_kind', 'smoothness', 'truth_spec', "
                                 "'estimator_spec', 'n_grid', 'replicates', 'master_seed', "
                                 "'filter', 'j_max', 'tolerances']"),
    "replicates_in_scaling": (dict(SCALING, replicates=32), "replicates: experiment "
                              "'scaling_function' does not read it"),
    "filter_in_scaling": (dict(SCALING, filter="db3"), "filter: experiment 'scaling_function'"),
    "estimator_in_scaling": (dict(SCALING, estimator_spec={"kind": "projection"}),
                             "estimator_spec: experiment 'scaling_function'"),
    "j_max_in_witness": (dict(WITNESS, j_max=4), "j_max: experiment 'weak_exclusion'"),
    "scaling_p_in_witness": (dict(WITNESS, scaling_p=[2.0]),
                             "scaling_p: experiment 'weak_exclusion'"),
    # --seed on a kind without a seed names the flag, not a key the config lacks
    "seed_flag_on_scaling": (SCALING, "--seed: experiment 'scaling_function' reads no seed; "
                             "only rate_fit, probe_sweep, density_rate_fit do", "--seed", "3"),
    "seed_flag_on_witness": (WITNESS, "--seed: experiment 'weak_exclusion' reads no seed",
                             "--seed", "5"),
    # how a run is executed is set by its caller, not by the config
    "threads_in_config": (_rate(threads=2), "threads: experiment 'rate_fit' does not read it"),
    "output_dir_in_config": (_rate(output_dir="elsewhere"),
                             "output_dir: experiment 'rate_fit' does not read it"),
    "missing_smoothness": ({"experiment_kind": "rate_fit"},
                           "smoothness: experiment 'rate_fit' needs it"),
    # a tree file is read at validate as run reads it (TREE_FILES holds each file)
    "tree_file_not_a_tree": (_rate(truth_spec={"kind": "explicit_tree_file", "path": "t.csv"}),
                             "t.csv: not a coefficient-tree stream"),
    "tree_file_without_d": (_rate(truth_spec={"kind": "explicit_tree_file", "path": "t.csv"}),
                            "t.csv: the header has no field 'd'"),
    "tree_file_row_outside_level": (_rate(truth_spec={"kind": "explicit_tree_file",
                                                      "path": "t.csv"}),
                                    "t.csv: position (1, 5) outside the grid"),
    "tree_file_of_other_dimension": (_rate(truth_spec={"kind": "explicit_tree_file",
                                                       "path": "t.csv"}),
                                     "t.csv: dimension must be 1, got 2"),
    # these ran to FAIL ... measured=nan, or kept the last of two values at one position
    "tree_file_nan_value": (_rate(truth_spec={"kind": "explicit_tree_file", "path": "t.csv"}),
                            "t.csv: value nan is not finite"),
    "tree_file_infinite_scaling": (_rate(truth_spec={"kind": "explicit_tree_file",
                                                     "path": "t.csv"}),
                                   "t.csv: value inf is not finite"),
    "tree_file_repeated_position": (_rate(truth_spec={"kind": "explicit_tree_file",
                                                      "path": "t.csv"}),
                                    "t.csv: position (1, 0) repeats"),
    # a truth is read at the config's j_max (8): a deeper row ran with the truth
    # observed only to level 8
    "tree_file_row_past_j_max": (_rate(truth_spec={"kind": "explicit_tree_file",
                                                   "path": "t.csv"}),
                                 "truth_spec: level 9 outside [0, 8]"),
    # "inf" is text only for smoothness.r: an infinite tolerance passed any slope, and an
    # infinite amplitude ran to FAIL ... measured=nan
    "infinite_alpha_tolerance": (_rate(tolerances={"alpha": "inf"}), "tolerances.alpha"),
    "infinite_base_amplitude": (_rate(truth_spec={"kind": "generic_g", "base_amplitude": "inf"}),
                                "truth_spec.base_amplitude"),
    # the run samples a density truth's law: one it cannot sample exited 102 there
    "density_negative_mass": (dict(DENSITY_WORKLOAD, truth_spec={
        **DENSITY_WORKLOAD["truth_spec"], "base_amplitude": 40}),
        "truth_spec: density has negative mass 1.12 > 0.0001"),
    # the sampler renormalized it, and the run measured a flat risk to a FAIL verdict
    "density_mass_not_one": (dict(DENSITY_WORKLOAD, j_max=6, truth_spec={
        "kind": "explicit_tree_file", "path": "t.csv"}),
        "truth_spec: density has mass 2, not 1 within 0.0001"),
    # deeper than MAX_DEPTH = 24: these tried to allocate 2^40 or 2^25 doubles
    "tree_file_too_deep": (_rate(truth_spec={"kind": "explicit_tree_file", "path": "t.csv"}),
                           "t.csv: j_max must lie in [0, 24], got 40"),
    "j_max_too_deep": (_rate(j_max=40, truth_spec={"kind": "custom_bump"}),
                       "j_max must lie in [1, 24], got 40"),
    "scaling_j_max_too_deep": (dict(SCALING, j_max=40), "j_max must lie in [1, 24], got 40"),
    # the run's plan, built at validate: kappa sqrt(log n / n) underflowed to 0 and run
    # exited 102 in the estimator; 72 TiB of losses and 8 TiB of uniforms were allocated
    "kappa_underflows": (dict(DEMO["dense_threshold_rate"], estimator_spec={
        "kind": "threshold_hard", "kappa": 5e-324}),
        "estimator_spec.kappa: the threshold at n = 1024 is 0.0, not positive and finite"),
    "replicates_beyond_the_cap": (dict(DEMO["sparse_linear_rate"], replicates=2**40),
                                  "replicates: 1 x 9 x 1099511627776 losses (truths x n x "
                                  "replicates) exceed the 134217728"),
    "density_n_beyond_the_cap": (dict(DEMO["density_threshold_rate"],
                                      n_grid=[1024, 2048, 4096, 2**40]),
                                 "n_grid: a density sample of n = 1099511627776 draws exceeds"),
    # the truth's loss bound, 1^p, held, but the estimates' losses overflowed in run
    "density_loss_bound_overflows": (dict(DEMO["density_threshold_rate"], smoothness={
        "s": 2, "r": 2, "p": 2**31}, truth_spec={"kind": "uniform_density"}),
        "smoothness.p: the loss bound of an estimate read to level 8 at n = 1024 overflows"),
    "density_grid_too_fine": (dict(DENSITY_WORKLOAD, j_max=17),
                              "truth_spec: density grid of 2^25 cells is finer than 2^24: "
                              "j_max must be <= 16"),
    # a cutoff above 2^25 adds only levels no tree holds: 1e308 overflowed in
    # linear_weights, and 1e9 read level 29 of every density sample
    "fixed_m_n_overflows": (_rate(estimator_spec={"kind": "projection", "fixed_m_n": 1e308}),
                            "fixed_m_n must be a finite number in [0, 2^25]"),
    "density_fixed_m_n_too_deep": (dict(DENSITY_WORKLOAD, estimator_spec={
        "kind": "projection", "fixed_m_n": 1e9}), "fixed_m_n must be a finite number"),
    # validate computes the scaling table as the run does, which refuses p <= 0
    "zero_scaling_p": (dict(SCALING, scaling_p=[0.0]), "scaling_p: p must be positive"),
    "negative_scaling_p": (dict(SCALING, scaling_p=[2.0, -2.0]), "scaling_p: p must be positive"),
    # the bound overflows to inf from t = 2560 on; the run printed FAIL ... measured=nan
    "infinite_witness_bound": (dict(WITNESS, witness_t_range=[10, 3000]),
                               "witness_t_range: the witness bound is inf at t = 2560"),
    # a slope needs 4 risks: run simulated the whole grid, then exited 102 in fit_slope
    "rate_fit_grid_too_short": (dict(DEMO["dense_threshold_rate"], n_grid=[1024, 2048, 4096]),
                                "n_grid must hold at least 4 sizes"),
    "density_grid_too_short": (dict(DENSITY_WORKLOAD, n_grid=[1024, 2048, 4096]),
                               "n_grid must hold at least 4 sizes"),
    # a negative tolerance ran to a FAIL verdict, an R^2 floor outside (0, 1] passed
    # vacuously (R^2 is clamped to [0, 1]) or could never pass: config errors that
    # read as verdicts
    "negative_alpha_tolerance": (dict(DEMO["dense_threshold_rate"], tolerances={"alpha": -0.1}),
                                 "tolerances.alpha: -0.1 lies outside [0, inf]"),
    "negative_r_squared": (dict(DEMO["dense_threshold_rate"], tolerances={"r_squared": -5}),
                           "tolerances.r_squared: -5.0 lies outside (0, 1]"),
    "zero_r_squared": (dict(DEMO["dense_threshold_rate"], tolerances={"r_squared": 0}),
                       "tolerances.r_squared: 0.0 lies outside (0, 1]"),
    "r_squared_above_one": (dict(DEMO["dense_threshold_rate"], tolerances={"r_squared": 1.5}),
                            "tolerances.r_squared: 1.5 lies outside (0, 1]"),
    "negative_witness_tolerance": (dict(DEMO["weak_exclusion"], tolerances={"witness_rel": -0.2}),
                                   "tolerances.witness_rel: -0.2 lies outside"),
    "negative_scaling_tolerance": (dict(SCALING, tolerances={"scaling": -0.1}),
                                   "tolerances.scaling: -0.1 lies outside"),
    "negative_spread": (_sweep(tolerances={"spread": -0.05}),
                        "tolerances.spread: -0.05 lies outside"),
    # names no experiment, truth or filter
    "config_not_an_object": ([DEMO["dense_threshold_rate"]], "config must be a JSON object"),
    "unknown_experiment_kind": (_rate(experiment_kind="rate"),
                                "experiment_kind must be one of ('rate_fit', "),
    "unknown_truth_kind": (_rate(truth_spec={"kind": "bump"}),
                           "truth_spec.kind must be one of ('generic_g', "),
    "unknown_filter": (_rate(filter="sym4"), "filter: unknown wavelet filter 'sym4'"),
}
TREE_FILES = {
    "tree_file_not_a_tree": "j,k,value\n1,0,1.0\n",
    "tree_file_without_d": "# coefficient-tree,j_max=4,scaling=0.0\nj,k,value\n1,0,1.0\n",
    "tree_file_row_outside_level": "# coefficient-tree,d=1,j_max=4,scaling=0.0\n"
                                   "j,k,value\n1,5,1.0\n",
    "tree_file_of_other_dimension": "# coefficient-tree,d=2,j_max=2,scaling=0.0\n"
                                    "j,k1,k2,value\n1,0,1,1.0\n",
    "tree_file_nan_value": "# coefficient-tree,d=1,j_max=4,scaling=0.0\nj,k,value\n1,0,nan\n",
    "tree_file_infinite_scaling": "# coefficient-tree,d=1,j_max=4,scaling=inf\n"
                                  "j,k,value\n1,0,1.0\n",
    "tree_file_repeated_position": "# coefficient-tree,d=1,j_max=4,scaling=0.0\n"
                                   "j,k,value\n1,0,1.0\n1,0,2.0\n",
    "tree_file_row_past_j_max": "# coefficient-tree,d=1,j_max=12,scaling=0.0\n"
                                "j,k,value\n2,1,1.0\n9,300,0.5\n",
    "tree_file_too_deep": "# coefficient-tree,d=1,j_max=40,scaling=0.0\nj,k,value\n40,0,1.0\n",
    "density_mass_not_one": "# coefficient-tree,d=1,j_max=6,scaling=2.0\nj,k,value\n3,2,0.1\n",
}


@pytest.mark.parametrize("name", REJECTED)
def test_run_rejects_configs_it_cannot_use(name, tmp_path, capsys, monkeypatch):
    raw, key, *flags = REJECTED[name]
    monkeypatch.chdir(tmp_path)
    inputs = {"cfg.json": json.dumps(raw)}
    if name in TREE_FILES:
        inputs["t.csv"] = TREE_FILES[name]
    for file, text in inputs.items():
        (tmp_path / file).write_text(text)
    # run flags apply to run only; without them validate must reject the config too
    commands = [["run", "--out", "out", *flags]] + ([] if flags else [["validate"]])
    for command, *options in commands:
        assert main([command, "--config", "cfg.json", *options]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


# The config fuzzer: the Monte Carlo demo configs, each shrunk to its first 4 n,
# 2 replicates and j_max at most 10, with one or two keys (a path of dict keys and
# list indices) set to a value of FUZZ_VALUES
FUZZ_BASES = {name: dict(raw, n_grid=raw["n_grid"][:4], replicates=2, j_max=min(raw["j_max"], 10))
              for name, raw in DEMO.items() if "n_grid" in raw}
FUZZ_VALUES = (0, 5e-324, 1e200, -1e200, 2**31, 1e100)
FUZZ_KEYS = ("replicates", "master_seed", "j_max", "n_grid.0", "n_grid.3", "estimator_spec.kappa",
             "truth_spec.base_amplitude", "truth_spec.probe_alpha", "truth_spec.dither",
             "truth_spec.j_min", "smoothness.s", "smoothness.r", "smoothness.p",
             "tolerances.alpha", "tolerances.r_squared", "tolerances.spread", "probe_alphas.1")


def _fuzz_node(raw, parents):
    for key in parents:
        raw = raw[int(key)] if isinstance(raw, list) else raw.get(key, {})
    return raw


def _fuzz_cases():
    """Every base with each key it holds set to each value, then 300 of the pairs
    of those, drawn with a fixed seed, and a pair that crashed run by itself."""
    singles = []
    for name, raw in FUZZ_BASES.items():
        for path in FUZZ_KEYS:
            *parents, last = path.split(".")
            node = _fuzz_node(raw, parents)
            if last in node or isinstance(node, list) and int(last) < len(node):
                singles += [(name, ((path, value),)) for value in FUZZ_VALUES]
    pairs = [(name, a + b) for (name, a), (other, b) in itertools.combinations(singles, 2)
             if name == other and a[0][0] != b[0][0]]
    # the density of 1 at p = 2^31: its estimates' losses overflowed in run (exit 102)
    crashed = ("density_threshold_rate", (("truth_spec.base_amplitude", 0),
                                          ("smoothness.p", 2**31)))
    return singles + random.Random(25).sample(pairs, 300) + [crashed]


@pytest.mark.filterwarnings("ignore:non-positive risks clipped")
def test_fuzzed_configs_are_refused_at_validate_or_run_to_a_verdict(tmp_path, capsys):
    """No config that passes validate crashes run: each fuzz case exits 101 at
    validate, or runs to exit below 101, which report repeats.  Among the singles,
    kappa 5e-324 (its threshold underflows to 0), replicates 2^31, 1e100 or 1e200
    (the losses array) and a density n of those (its draw) each exited 102 in
    run, and dither 2^31 made the truth nan.  A risk that underflows to 0 (n 1e200
    at p = 4) is clipped before the fit with a warning, as by design; any other
    warning is an error.  The shrunk bases and the values keep every legal run
    small: j_max stays at most 10 and no value lies between the demo sizes and the
    caps, so no case runs j_max 24 at large n, a density n near 2^27 or 2^25
    replicates, each of which is legal and takes minutes and gigabytes."""
    for i, (name, changes) in enumerate(_fuzz_cases()):
        raw = json.loads(json.dumps(FUZZ_BASES[name]))
        for path, value in changes:
            *parents, last = path.split(".")
            node = _fuzz_node(raw, parents)
            node[int(last) if isinstance(node, list) else last] = value
        cfg, out = tmp_path / "cfg.json", tmp_path / str(i)
        cfg.write_text(json.dumps(raw))
        if main(["validate", "--config", str(cfg)]) != EXIT_CONFIG_ERROR:
            code = main(["run", "--config", str(cfg), "--out", str(out)])
            assert code < EXIT_CONFIG_ERROR, (name, changes, capsys.readouterr().err)
            assert main(["report", "--dir", str(out)]) == code, (name, changes)
        capsys.readouterr()


# a config of each truth kind that validates
TRUTH_CONFIGS = {
    "generic_g": _rate(),
    "explicit_tree_file": _rate(truth_spec={"kind": "explicit_tree_file", "path": "t.csv"}),
    "uniform_density": dict(DENSITY_WORKLOAD, truth_spec={"kind": "uniform_density"}),
    "custom_bump": _rate(truth_spec={"kind": "custom_bump", "level": 3}),
}


@pytest.mark.parametrize("kind", TRUTHS)
def test_validate_builds_the_truth_with_the_runs_builder(kind, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recordio.write_tree(bump_tree(1, 4, 2, 1, 0.5), "t.csv")
    (tmp_path / "cfg.json").write_text(json.dumps(TRUTH_CONFIGS[kind]))
    assert main(["validate", "--config", "cfg.json"]) == 0
    capsys.readouterr()

    @functools.wraps(TRUTHS[kind].build)  # the wrapped signature still gives the schema
    def refused(config, **spec):
        raise ValueError("the builder refused")

    monkeypatch.setitem(TRUTHS, kind, TRUTHS[kind]._replace(build=refused))
    assert main(["validate", "--config", "cfg.json"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "error: truth_spec: the builder refused\n"


def test_validate_builds_every_truth_the_run_builds(tmp_path, capsys, monkeypatch):
    # validate built one truth at the default probe_alpha 0.7, which no sweep runs
    alphas, build = [], TRUTHS["generic_g"].build

    @functools.wraps(build)  # the wrapped signature still gives the schema
    def recorded(config, probe_alpha=0.7, **spec):
        alphas.append(probe_alpha)
        return build(config, probe_alpha=probe_alpha, **spec)

    monkeypatch.setitem(TRUTHS, "generic_g", TRUTHS["generic_g"]._replace(build=recorded))
    path = ROOT / "demos" / "configs" / "probe_sweep.json"
    validate_config(path.read_text())
    assert alphas == [-1.0, -0.3, 0.3, 1.0]
    alphas.clear()  # run parses and builds once
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert alphas == [-1.0, -0.3, 0.3, 1.0]


def test_a_p4_truth_within_the_loss_bound_runs(tmp_path, capsys):
    # below the bound p4_loss_bound_overflows refuses, the truth runs to its verdict
    (tmp_path / "cfg.json").write_text(json.dumps(_p4_rate(1e60)))
    assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL rate_fit.implied_alpha: ")


def test_the_loss_bound_holds_sup_psi_below_two():
    # the p != 2 loss bound takes sup |psi| < 2 for every filter get_filter names: the
    # samples of one level-5 wavelet, psi scaled by 2^(5/2), on a grid of 2^-17
    for name in [f"db{n}" for n in range(1, 11)]:
        samples = synthesize(bump_tree(1, 5, 5, 0, 1.0), get_filter(name), 17).samples
        assert np.abs(samples).max() / 2 ** 2.5 < 2.0, name


def test_a_run_builds_one_g_and_one_shell(tmp_path):
    # the four alphas' truths of a probe sweep, built by validate and again by run,
    # share the unit terms of g and of the shell
    _unit_term.cache_clear()
    run_in(tmp_path / "out", sweep_config())
    assert _unit_term.cache_info().misses == 2


def test_shell_tree_call_forms_share_one_cache_entry():
    # the benchmark set-up calls build_g and shell_tree, the run's truth builder one
    # shell_sum: validate and the set-up's truth build one g and one shell between them
    spec = importlib.util.spec_from_file_location("setup_child",
                                                  ROOT / "perfbench" / "setup_child.py")
    setup_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_child)
    _unit_term.cache_clear()
    config = validate_config((ROOT / "perfbench" / "workloads" / "sparse_linear.json").read_text())
    assert _unit_term.cache_info()[:2] == (0, 2)  # hits, misses: g and the shell
    setup_child.build_truths(config)
    assert _unit_term.cache_info()[:2] == (2, 2)


def test_a_density_run_builds_one_sampler(tmp_path, monkeypatch):
    # the plan holds the truth's one sampler: validate's build plans it and so does
    # run's, each from one synthesis of the law, and the run's execution builds none
    callers, syntheses = [], []
    build, synthesize = DensitySampler.from_tree.__func__, models.synthesize

    def recorded(cls, tree, filt):
        callers.append([frame.name for frame in traceback.extract_stack()])
        return build(cls, tree, filt)

    def counted(*args):
        syntheses.append(args)
        return synthesize(*args)

    monkeypatch.setattr(DensitySampler, "from_tree", classmethod(recorded))
    monkeypatch.setattr(models, "synthesize", counted)
    text = json.dumps(dict(DENSITY_WORKLOAD, n_grid=[64, 128, 256, 512], replicates=2, j_max=4))
    config = validate_config(text)
    assert len(callers) == 1 and "_plan" in callers[0] and len(syntheses) == 1
    run(replace(config, output_dir=str(tmp_path / "out")))
    assert len(callers) == 2 and "_plan" in callers[1] and "execute" not in callers[1]
    assert len(syntheses) == 2


def test_report_reads_the_run_directory_alone(tmp_path, capsys, monkeypatch):
    # report rebuilt the truth: a moved explicit_tree_file failed it with exit 101
    monkeypatch.chdir(tmp_path)
    recordio.write_tree(bump_tree(1, 4, 2, 1, 0.5), "t.csv")
    (tmp_path / "cfg.json").write_text(json.dumps(TRUTH_CONFIGS["explicit_tree_file"]))
    status = main(["run", "--config", "cfg.json", "--out", "run"])
    ran = capsys.readouterr().out
    (tmp_path / "t.csv").rename(tmp_path / "moved.csv")
    (tmp_path / "elsewhere").mkdir()
    for cwd, run_dir in ((tmp_path, "run"), (tmp_path / "elsewhere", str(tmp_path / "run"))):
        monkeypatch.chdir(cwd)
        assert main(["report", "--dir", run_dir]) == status
        reported = capsys.readouterr().out
        assert reported.startswith(("PASS rate_fit.", "FAIL rate_fit.")) and ran.endswith(reported)


def test_report_builds_nothing(tmp_path, monkeypatch):
    # parse, then the verdicts of the stored tables: no truth, sampler or g is built
    texts = {"rate": rate_config(replicates=2), "sweep": sweep_config(replicates=2),
             "density": json.dumps(dict(DENSITY_WORKLOAD, n_grid=[64, 128, 256, 512],
                                        replicates=2, j_max=4)),
             "scaling": json.dumps(SCALING), "witness": json.dumps(WITNESS)}
    reports = {name: run_in(tmp_path / name, text) for name, text in texts.items()}

    def refused(*args, **kwargs):
        raise ValueError("report built something")

    for kind, truth in TRUTHS.items():  # a wrapper per kind keeps its signature: the schema
        monkeypatch.setitem(TRUTHS, kind, truth._replace(build=functools.wraps(truth.build)(
            lambda *args, **kwargs: refused())))
    monkeypatch.setattr(DensitySampler, "from_tree", refused)
    monkeypatch.setattr(DensitySampler, "cell_masses", refused)
    monkeypatch.setattr("waverates.cli.build_g", refused)
    for name, report in reports.items():
        assert report_from_dir(tmp_path / name) == list(report.verdicts)


# (config, table, data row, column, value): a cell no run writes.  Each was read
# as a FAIL verdict (exit 1 or 2), the infinite n as an internal error (exit 102)
# and a fractional n or replicate count, which int() truncated, a replicate count
# other than the manifest's or an n off its n_grid as sound (exit 0)
DAMAGED_CELLS = {
    "nan_risk": (rate_config(replicates=2), "risk_threshold_hard.csv", 1, 1, "nan"),
    "infinite_risk": (rate_config(replicates=2), "risk_threshold_hard.csv", 1, 1, "inf"),
    "infinite_std_error": (rate_config(replicates=2), "risk_threshold_hard.csv", 1, 2, "inf"),
    "infinite_n": (rate_config(replicates=2), "risk_threshold_hard.csv", 4, 0, "inf"),
    "fractional_n": (rate_config(replicates=2), "risk_threshold_hard.csv", 2, 0, "1024.5"),
    "fractional_replicates": (rate_config(replicates=2), "risk_threshold_hard.csv", 1, 3, "3.7"),
    "negative_replicates": (rate_config(replicates=2), "risk_threshold_hard.csv", 1, 3, "-3"),
    "zero_replicates": (rate_config(replicates=2), "risk_threshold_hard.csv", 1, 3, "0"),
    "n_off_the_grid": (rate_config(replicates=2), "risk_threshold_hard.csv", 2, 0, "1000"),
    "nan_witness_bound": (json.dumps(WITNESS), "witness.csv", 11, 1, "nan"),  # t = 12
    "nan_scaling_estimate": (json.dumps(SCALING), "scaling.csv", 0, 1, "nan"),
    "infinite_scaling_estimate": (json.dumps(SCALING), "scaling.csv", 0, 1, "inf"),
    "infinite_witness_bound": (json.dumps(WITNESS), "witness.csv", 11, 1, "inf"),
    "zero_witness_bound": (json.dumps(WITNESS), "witness.csv", 11, 1, "0.0"),
}


@pytest.mark.parametrize("name", DAMAGED_CELLS)
def test_report_refuses_a_damaged_table(name, tmp_path, capsys):
    text, table, row, column, value = DAMAGED_CELLS[name]
    run_in(tmp_path, text)
    lines = (tmp_path / table).read_text().splitlines()
    cells = lines[2 + row].split(",")  # below the hash and column lines
    cells[column] = value
    lines[2 + row] = ",".join(cells)
    (tmp_path / table).write_text("\n".join(lines) + "\n")
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: damaged table {tmp_path / table}: ") and err.count("\n") == 1


def test_report_refuses_a_table_of_another_run(tmp_path, capsys):
    # the tables were scored under this directory's manifest whatever their hash row read
    run_in(tmp_path, json.dumps(SCALING))
    hash_row, *rest = (tmp_path / "scaling.csv").read_text().splitlines(keepends=True)
    for text in ("# manifest_hash=deadbeef\n" + "".join(rest), "".join(rest),
                 hash_row + "".join(rest)):
        (tmp_path / "scaling.csv").write_text(text)
        status = main(["report", "--dir", str(tmp_path)])
        err = capsys.readouterr().err
        if text.startswith(hash_row):  # the run's own table
            assert status == 0 and err == ""
        else:
            assert status == EXIT_CONFIG_ERROR and err.count("\n") == 1
            assert err.startswith(f"error: damaged table {tmp_path / 'scaling.csv'}: ")


def test_report_reads_infinite_cells_a_run_writes(tmp_path, capsys):
    # the demo witness table holds log2 of a zero bound, -inf, outside witness_t_range
    run_in(tmp_path, json.dumps(DEMO["weak_exclusion"]))
    assert "-inf" in (tmp_path / "witness.csv").read_text()
    assert main(["report", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("PASS weak_exclusion.log2_slope")


def test_filter_spellings_give_one_manifest_hash(tmp_path, capsys):
    # get_filter read each spelling as one filter, but the manifest held the text as given
    shallow = {"s": 1, "r": 2, "p": 2, "d": 1}  # ceil(s) = 1: db1 has enough moments
    for canonical, names in (("db2", ["db2", "DB2", " db2 ", "Db2", "db02"]),
                             ("db1", ["db1", "haar", "HAAR"])):
        hashes = set()
        for i, name in enumerate(names):
            out = tmp_path / f"{canonical}_{i}"
            hashes.add(run_in(out, rate_config(filter=name, smoothness=shallow, replicates=2,
                                               n_grid=[64, 128, 256, 512])).manifest_hash)
            manifest = json.loads((out / "manifest.json").read_text())["manifest"]
            assert manifest["filter"] == canonical
        assert len(hashes) == 1, names


def test_one_sided_alpha_bounds_the_implied_alpha_from_above(tmp_path, capsys):
    # alpha_upper passes an implied alpha below expected - alpha, which implied_alpha fails
    tolerances = {"alpha": 0.02, "one_sided": True}
    steep = {"kind": "generic_g", "base_amplitude": 4096.0, "probe_alpha": 0.7, "dither": 2.0}
    cases = {"below": (rate_config(tolerances=tolerances), True),  # implied alpha 0.372
             "above": (rate_config(tolerances=tolerances, truth_spec=steep, replicates=4),
                       False)}  # implied alpha 0.448
    for name, (text, passed) in cases.items():
        (tmp_path / f"{name}.json").write_text(text)
        out = tmp_path / name
        assert main(["run", "--config", str(tmp_path / f"{name}.json"), "--out", str(out)]) == (
            0 if passed else 1)
        ran = capsys.readouterr().out
        (verdict,) = json.loads((out / "report.json").read_text())["verdicts"]
        assert verdict["criterion"] == "rate_fit.alpha_upper" and verdict["pass"] is passed
        assert abs(verdict["measured"] - verdict["expected"]) > verdict["tolerance"]
        assert main(["report", "--dir", str(out)]) == (0 if passed else 1)
        assert ran.endswith(capsys.readouterr().out)
        assert report_from_dir(out) == [verdict]


NAN = float("nan")
# (config, the key its error line must name); each validated at exit 0 before
# these values were parsed, and then ran into an error or a wrong verdict, ran
# on a coerced value, or entered the manifest hash while nothing read it
UNPARSED = {
    "nan_kappa": (_rate(estimator_spec={"kind": "threshold_hard", "kappa": NAN}), "kappa"),
    "infinite_kappa": (_rate(estimator_spec={"kind": "threshold_soft", "kappa": math.inf}),
                       "kappa"),
    "nan_pinsker_order": (_rate(estimator_spec={"kind": "pinsker", "pinsker_order": NAN}),
                          "pinsker_order"),
    "nan_base_amplitude": (_rate(truth_spec={"kind": "generic_g", "base_amplitude": NAN}),
                           "base_amplitude"),
    "nan_dither": (_rate(truth_spec={"kind": "generic_g", "dither": NAN}), "dither"),
    "nan_probe_alpha": (_sweep(probe_alphas=[NAN, 1.0]), "probe_alphas"),
    "text_alpha_tolerance": (_rate(tolerances={"alpha": "abc"}), "tolerances.alpha"),
    "list_alpha_tolerance": (_rate(tolerances={"alpha": [1]}), "tolerances.alpha"),
    "text_r_squared": (_rate(tolerances={"r_squared": "x"}), "tolerances.r_squared"),
    # bool("no") is True: this ran as the one-sided verdict
    "text_one_sided": (_rate(tolerances={"one_sided": "no"}), "tolerances.one_sided"),
    "nan_spread": (_sweep(tolerances={"spread": NAN}), "tolerances.spread"),
    # a number is a JSON number: not a boolean, not text
    "boolean_alpha_tolerance": (_rate(tolerances={"alpha": True}), "tolerances.alpha"),
    "boolean_witness_eps": (dict(WITNESS, witness_eps=True), "witness_eps"),
    "text_replicates": (_rate(replicates="32"), "replicates"),
    "text_s": (_rate(smoothness={"s": "2", "r": 2, "p": 2, "d": 1}), "smoothness.s"),
    "text_master_seed": (_rate(master_seed=" 7 "), "master_seed"),
    "text_kappa": (_rate(estimator_spec={"kind": "threshold_hard", "kappa": "3"}),
                   "estimator_spec.kappa"),
    "boolean_kappa": (_rate(estimator_spec={"kind": "threshold_hard", "kappa": True}),
                      "estimator_spec.kappa"),
    "smoothness_q": (_rate(smoothness={"s": 2, "r": 2, "p": 2, "d": 1, "q": 1}), "smoothness.q"),
    "probe_alpha_in_sweep": (_sweep(truth_spec={"kind": "generic_g", "probe_alpha": 0.7}),
                             "truth_spec.probe_alpha: truth 'generic_g' of probe_sweep"),
    # a kind is text: looked up unparsed, a list or an object was an unhashable-type error
    "list_experiment_kind": (_rate(experiment_kind=["x"]),
                             "experiment_kind: expected str, got ['x']"),
    "list_truth_kind": (_rate(truth_spec={"kind": ["x"]}),
                        "truth_spec.kind: expected str, got ['x']"),
    "object_estimator_kind": (_rate(estimator_spec={"kind": {}}),
                              "estimator_spec.kind: expected str, got {}"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name", UNPARSED)
def test_nan_and_mistyped_values_are_config_errors(name, command, tmp_path, capsys,
                                                      monkeypatch):
    raw, key = UNPARSED[name]
    monkeypatch.chdir(tmp_path)  # run's default --out is under the working directory
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_tolerances_parse_by_the_type_of_their_default(tmp_path):
    config = validate_config(rate_config(tolerances={
        "alpha": 1, "one_sided": True, "r_squared": None}))
    assert config.tolerances == {"alpha": 1.0, "one_sided": True, "r_squared": None}
    assert type(config.tolerances["alpha"]) is float
    assert validate_config(rate_config(smoothness={
        "s": 2, "r": "inf", "p": 2, "d": 1})).smoothness.r == math.inf  # inf is a number


@pytest.mark.parametrize("text", ["", "p,estimate,theory,residual\n2.0,x,1.0,0.0\n",
                                  "p,estimate,theory,residual\n2.0,1.0,1.0\n", None],
                         ids=["empty", "not_a_number", "short_row", "missing"])
def test_report_on_a_damaged_table_is_a_config_error(text, tmp_path, capsys):
    # a missing table was an internal error, exit 102
    out = tmp_path / "scal"
    run_in(out, json.dumps(SCALING))
    if text is None:
        (out / "scaling.csv").unlink()
    else:  # under the run's hash row, so each table fails on its own fault
        hash_row = (out / "scaling.csv").read_text().splitlines(keepends=True)[0]
        (out / "scaling.csv").write_text(hash_row + text if text else text)
    assert main(["report", "--dir", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: damaged table") and "scaling.csv" in err
    assert err.count("\n") == 1


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    # names a demo imports exist (test_demos_run runs each demo)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "waverates":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}: {node.module} has no {missing}"


def _python(args, cwd, **env):
    """A fresh interpreter run on args with this checkout's package, to its exit."""
    src = str(ROOT / "src")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demos_run(path, tmp_path):
    # each demo runs to exit 0, writes only under its working directory and TMPDIR,
    # and removes what it wrote under TMPDIR
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    done = _python([str(path)], tmp_path, TMPDIR=str(tmp))
    assert done.returncode == 0, done.stderr
    assert not any(tmp.iterdir())


@pytest.mark.parametrize("module,frozen", [("waverates.cli", True), ("waverates", False)])
def test_importing_the_cli_freezes_the_heap_at_exit(module, frozen, tmp_path):
    # atexit runs its handlers last in, first out, so this one, registered before the
    # import, runs after the import's: it reads the freeze count that exit's collections see
    probe = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count()))"
    done = _python(["-c", f"{probe}; import {module}"], tmp_path)
    assert done.returncode == 0, done.stderr
    count = int(done.stdout)
    assert count > 0 if frozen else count == 0


def test_the_command_line_writes_what_main_writes(tmp_path, capsys):
    # the one test that runs the CLI to interpreter exit: python -m waverates.cli into
    # its default out/<config file stem>, against main in-process into another directory
    config = ROOT / "demos" / "configs" / "sparse_linear_rate.json"
    args = ["run", "--config", str(config), "--threads", "2", "--seed", "7"]
    (tmp_path / "cli").mkdir()
    done = _python(["-m", "waverates.cli", *args], tmp_path / "cli")
    status = main([*args, "--out", str(tmp_path / "main")])
    assert done.returncode == status, done.stderr + capsys.readouterr().err
    dirs = tmp_path / "cli" / "out" / config.stem, tmp_path / "main"
    files = [{path.name: path.read_bytes() for path in out.iterdir()} for out in dirs]
    manifests = [json.loads(f.pop("manifest.json")) for f in files]
    assert files[0] == files[1] and "report.json" in files[0]
    for manifest, out in zip(manifests, ("out/" + config.stem, str(dirs[1]))):
        assert manifest["execution"].pop("output_dir") == out
    assert manifests[0] == manifests[1]


def test_validate_fills_nested_defaults_and_keeps_given_values(tmp_path):
    config = validate_config(rate_config(estimator_spec={"kind": "pinsker"},
                                         truth_spec={"base_amplitude": 3}))
    # no kappa: only the thresholds read it
    assert config.estimator_spec == {"kind": "pinsker", "pinsker_order": 2.0, "fixed_m_n": None}
    assert config.truth_spec == {"kind": "generic_g", "probe_alpha": 0.7, "base_amplitude": 3.0,
                                 "dither": 0.0, "j_min": 0}
    assert type(config.truth_spec["base_amplitude"]) is float
    assert validate_config(rate_config(replicates=4.0)).replicates == 4


def test_equivalent_spellings_give_one_manifest_hash(tmp_path):
    base = json.loads(sweep_config(replicates=2, probe_alphas=[-1.0, 1.0],
                                   n_grid=[2**8, 2**9, 2**10, 2**11]))
    truth = base["truth_spec"]
    spellings = [base, dict(base, estimator_spec={"kind": "threshold_hard", "kappa": 2}),
                 dict(base, truth_spec=dict(truth, base_amplitude=64)),
                 dict(base, truth_spec=dict(truth, j_min=0)),
                 dict(base, tolerances={"spread": 0.05})]
    hashes = {run_in(tmp_path / "o", json.dumps(raw)).manifest_hash for raw in spellings}
    assert len(hashes) == 1
    other = dict(base, estimator_spec={"kind": "threshold_hard", "kappa": 3})
    assert run_in(tmp_path / "o", json.dumps(other)).manifest_hash not in hashes


def test_integral_truth_parameters_parse_like_top_level_integers(tmp_path):
    bump = validate_config(rate_config(truth_spec={
        "kind": "custom_bump", "level": 4.0, "position": 3.0}))
    assert bump.truth_spec == {"kind": "custom_bump", "level": 4, "position": 3,
                               "amplitude": 1.0}
    assert all(type(bump.truth_spec[key]) is int for key in ("level", "position"))
    assert _truth(bump).get(4, 3) == 1.0
    line = validate_config(rate_config(truth_spec={"kind": "generic_g",
                                                                   "j_min": 2.0}))
    assert line.truth_spec["j_min"] == 2 and type(line.truth_spec["j_min"]) is int
    for bad in (2.7, True, "two"):
        with pytest.raises(ConfigError, match="truth_spec.level: expected an integer"):
            validate_config(rate_config(truth_spec={"kind": "custom_bump",
                                                                    "level": bad}))
        with pytest.raises(ConfigError, match="truth_spec.j_min: expected an integer"):
            validate_config(rate_config(truth_spec={"kind": "generic_g",
                                                                    "j_min": bad}))


def test_probe_alphas_with_distinct_labels_validate(tmp_path):
    config = validate_config(sweep_config(probe_alphas=[0.3, 0.31, -0.3, 0.0]))
    assert config.probe_alphas == (0.3, 0.31, -0.3, 0.0)
    with pytest.raises(ConfigError, match=r"probe_alphas: 0\.3 and 0\.304 share the table "
                                          r"label 'alphap0_30'"):
        validate_config(sweep_config(probe_alphas=[0.3, -1.0, 0.304]))
