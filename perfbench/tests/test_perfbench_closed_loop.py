"""Output check and smoke runs of the closed loop on shrunken configs."""

import json
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT

import closed_loop
import instrument

SMALL_SPARSE = {
    "experiment_kind": "rate_fit",
    "smoothness": {"s": 1.2, "r": 1, "p": 4, "d": 1},
    "truth_spec": {"kind": "generic_g", "base_amplitude": 2.0, "probe_alpha": 0.7, "dither": 2.0},
    "estimator_spec": {"kind": "projection"},
    "n_grid": [256, 512, 1024, 2048],
    "replicates": 2,
    "filter": "db2",
    "j_max": 6,
    "tolerances": {"alpha": 10.0},
}
SMALL_DENSITY = {
    "experiment_kind": "density_rate_fit",
    "smoothness": {"s": 2, "r": 2, "p": 2, "d": 1},
    "truth_spec": {"kind": "generic_g", "base_amplitude": 1.0, "probe_alpha": 0.0,
                   "dither": 2.0, "j_min": 2},
    "estimator_spec": {"kind": "density_threshold"},
    "n_grid": [256, 512, 1024, 2048],
    "replicates": 2,
    "filter": "db2",
    "j_max": 4,
    "tolerances": {"alpha": 10.0},
}


def files(report=True, rows=b"n,risk\n1,0.5\n", hash_row=b"# manifest_hash=aa\n"):
    out = {"risk_projection.csv": hash_row + rows}
    if report:
        out["report.json"] = b"{}"
    return out


def test_output_check_passes_identical_reruns():
    assert closed_loop.output_problems(0, files(), files(), None) == []


def test_output_check_flags_each_failure():
    assert closed_loop.output_problems(3, files(), None, None) == ["exit status 3"]
    assert closed_loop.output_problems(0, files(report=False), None, None) == ["no report.json"]
    changed = files(rows=b"n,risk\n1,0.6\n")
    assert closed_loop.output_problems(0, changed, files(), None) == [
        "outputs differ from the same-seed, same-threads rerun"]
    assert closed_loop.output_problems(0, changed, None, files()) == [
        "table rows differ from the --threads 1 run"]


def test_thread_counts_may_differ_in_the_hash_row_only():
    other_hash = files(hash_row=b"# manifest_hash=bb\n")
    assert closed_loop.output_problems(0, other_hash, None, files()) == []
    assert closed_loop.output_problems(0, other_hash, files(), None) == [
        "outputs differ from the same-seed, same-threads rerun"]


def write_config(tmp_path, config):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(config))
    return path


def test_smoke_measure_reports_every_end_to_end_metric(tmp_path):
    workload = closed_loop.Workload(ROOT, write_config(tmp_path, SMALL_SPARSE), 5, tmp_path / "work")
    outcome = workload.measure(seconds=0)
    assert outcome.failures == []
    assert outcome.correct and outcome.attempted == 4 and outcome.failed == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(outcome.metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in outcome.metrics.values())
    assert len(outcome.samples["setup_s"]) == 2 * closed_loop.MIN_PAIRS * closed_loop.SETUPS_PER_RUN
    assert "implied_alpha[projection]" in outcome.numerics
    workload.close()
    assert not (tmp_path / "work").exists()


def test_smoke_trace_reports_every_per_layer_metric(tmp_path):
    workload = closed_loop.Workload(ROOT, write_config(tmp_path, SMALL_DENSITY), 5, tmp_path / "work")
    outcome = workload.trace()
    assert outcome.failures == []
    assert outcome.attempted == 3
    assert list(outcome.metrics) == list(instrument.PER_LAYER_UNITS)
    value = {name: m["value"] for name, m in outcome.metrics.items()}
    assert value["models.sample_density.grid_cells"] == 8 * (1 << (4 + 8))
    assert value["models.sample_density.repeat_truth_frac"] == 7 / 8
    assert value["models.empirical_coefficients.point_levels"] > 0
    assert value["models.simulate_sequence.draws"] == 0
    assert 0.0 < value["trace.attributed_frac"] <= 1.0
    workload.close()


def test_a_failed_verdict_counts_as_a_failed_run(tmp_path):
    strict = dict(SMALL_SPARSE, tolerances={"alpha": 1e-9})
    workload = closed_loop.Workload(ROOT, write_config(tmp_path, strict), 5, tmp_path / "work")
    workload.run(1)
    assert workload.outcome.failed == 1 and not workload.outcome.correct
    assert workload.outcome.failures == ["run_t1: exit status 1"]
    workload.close()


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "probe_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
