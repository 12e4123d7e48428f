import ast
import dataclasses
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import waverates
from waverates import (CoefficientTree, DensitySampler, EstimatorSpec, GenericFunctionSpec,
                       GridSignal, RateRegime, RiskRow, ScalingFunctionEstimate, ShellTerm,
                       SlopeFit, SmoothnessParams, WaveletFilter, analyze, build_g, get_filter,
                       monte_carlo_risk, recordio, shell_sum, shell_tree, simulate_sequence)
from waverates.cli import RunReport, main

MODULES = sorted(p.stem for p in Path(waverates.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))
ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(waverates.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        assert name in importlib.import_module(f"waverates.{module}").__all__, (module, name)


def test_every_listed_name_exists():
    for stem in MODULES:
        module = importlib.import_module(f"waverates.{stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (stem, name)


def test_records_are_named_tuples_unless_checked_or_parsed():
    # a record stays a dataclass only where its constructor checks values from
    # outside the program or the config parser reads its fields()
    found = {name for stem in MODULES
             for name, value in vars(importlib.import_module(f"waverates.{stem}")).items()
             if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert found == {"ExperimentConfig", "SmoothnessParams", "EstimatorSpec", "WaveletFilter",
                     "GridSignal", "DensitySample", "RiskTable"}
    for record in (RiskRow, RunReport, SlopeFit, RateRegime, GenericFunctionSpec, DensitySampler,
                   ScalingFunctionEstimate):
        assert issubclass(record, tuple) and record._fields
    assert type(simulate_sequence(CoefficientTree.zeros(1, 2), 4, 2, seed=0)) is CoefficientTree


def _definition_lines(path):
    """Line of each module-level def and class of a module, by name."""
    return {node.name: node.lineno for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_listed_name_has_a_reader_outside_tests():
    # a public name earns its place by a reader in the package, a demo or the
    # benchmark; its own def/class line, its __all__ entry (a string) and the
    # package re-export do not count
    package = ROOT / "src" / "waverates"
    readers = [p for p in sorted((ROOT / "src").rglob("*.py")) if p != package / "__init__.py"]
    readers += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in readers:
        own = _definition_lines(path) if path.parent == package else {}
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NAME and own.get(tok.string) != tok.start[0]:
                    read.add(tok.string)
    unread = [(stem, name) for stem in MODULES
              for name in getattr(importlib.import_module(f"waverates.{stem}"), "__all__", ())
              if name not in read]
    assert not unread


WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_benchmark_setup_builds_every_workload(workload, tmp_path):
    # the benchmark times this child on each workload, and a failed child is a failed
    # operation of every run: it calls validate_config, GenericFunctionSpec(d=),
    # shell_tree's positional d and density_truth_tree
    src = str(ROOT / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_child.py"),
                           str(workload), "0"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("built ")


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_benchmark_workload_runs_give_one_output_at_either_thread_count(workload, tmp_path,
                                                                         capsys):
    # the benchmark's output check: each run exits 0 and writes report.json, and the
    # --threads 2 run writes the tables, report and manifest hash of the --threads 1 run;
    # execution records how it ran and the software and platform that ran it
    out, outputs = tmp_path / "out", []
    for threads in ("1", "2"):
        status = main(["run", "--config", str(workload), "--out", str(out), "--seed", "7",
                       "--threads", threads])
        assert status == 0, capsys.readouterr()
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        assert manifest["execution"] == {
            "threads": int(threads), "output_dir": str(out), "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3], "waverates": waverates.__version__,
            "system": platform.system(), "machine": platform.machine(),
            "release": platform.release()}
        outputs.append((manifest["hash"], files))
        shutil.rmtree(out)  # as the benchmark takes a run's outputs
    assert "report.json" in outputs[0][1] and outputs[1] == outputs[0]


def _g(*args):
    return build_g(GenericFunctionSpec(*args))


def _one_term(*args):
    return shell_sum(2, 2, 4, [ShellTerm(*args)])


@pytest.mark.parametrize("build,args", [
    (SmoothnessParams, (True, 2, 2, 1)), (SmoothnessParams, (2, 2, 2, True)),
    (_g, (2, 2, 1, True)), (shell_tree, (2, 2, 1, True, 1.0)),
    (CoefficientTree, (1, True)), (_one_term, (True, 0.0, 0, 0.0)),
    (_one_term, (1.0, True, 1, 0.0)), (_one_term, (1.0, 0.0, True, 0.0)),
    (_one_term, (1.0, 0.0, 0, True)),
], ids=["SmoothnessParams.s", "SmoothnessParams.d", "build_g.j_max", "shell_tree.j_max",
        "CoefficientTree.j_max", "ShellTerm.amplitude", "ShellTerm.damping", "ShellTerm.j_min",
        "ShellTerm.dither"])
def test_library_constructors_refuse_bools(build, args):
    # True would pass as 1, as the config parser refuses it; the form with 1 builds
    # first, so True is also refused where the term cache holds the term of 1
    build(*(1 if arg is True else arg for arg in args))
    with pytest.raises(ValueError, match="must be a number, got True"):
        build(*args)


def _headless_table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# manifest_hash=abc\n")
    recordio.read_table(path, "abc")


_UNIFORM = CoefficientTree(1, 2, 1.0)


@pytest.mark.parametrize("refused,match", [
    (lambda _: monte_carlo_risk((_UNIFORM,), EstimatorSpec("threshold_hard"), [], 2, 2.0, 1),
     "n_grid must be nonempty and strictly increasing"),
    (lambda _: monte_carlo_risk((_UNIFORM,), EstimatorSpec("threshold_hard"), [64, 64], 2,
                                2.0, 1), "n_grid must be nonempty and strictly increasing"),
    (lambda _: monte_carlo_risk((_UNIFORM,), EstimatorSpec("threshold_hard"), [64, 128], 1,
                                2.0, 1), "need at least 2 replicates"),
    (lambda _: EstimatorSpec("lasso"), "unknown estimator kind 'lasso'"),
    (lambda _: EstimatorSpec("pinsker"), "needs smoothness parameters or fixed_m_n"),
    (lambda _: simulate_sequence(_UNIFORM, 0, 2, 1), "n must be >= 1"),
    (lambda _: simulate_sequence(_UNIFORM, 64, -1, 1), "j_max must be >= 0"),
    (lambda _: DensitySampler.from_tree(_UNIFORM, get_filter("haar")).cells(0, 1, 4),
     "n must be >= 1"),
    (_headless_table, "no column header"),
    (lambda _: WaveletFilter("db0", np.array([0.5**0.5, 0.5**0.5]), 0),
     "vanishing_moments must be >= 1"),
    (lambda _: WaveletFilter("flat", np.full(4, 2**0.5 / 4), 2),
     "taps fail orthonormality at shift 2"),
    (lambda _: WaveletFilter("spike", np.array([2**0.5, 0.0]), 1), "taps are not unit norm"),
    (lambda _: analyze(GridSignal(3, np.ones(8)), get_filter("haar"), -1),
     "j_max must be non-negative"),
], ids=["monte_carlo_risk.empty_n_grid", "monte_carlo_risk.repeated_n", "monte_carlo_risk.R",
        "EstimatorSpec.kind", "EstimatorSpec.linear_cutoff", "simulate_sequence.n",
        "simulate_sequence.j_max", "DensitySampler.cells.n", "read_table.column_header",
        "WaveletFilter.vanishing_moments", "WaveletFilter.orthonormality",
        "WaveletFilter.unit_norm", "analyze.j_max"])
def test_library_refuses_invalid_arguments(refused, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        refused(tmp_path)
