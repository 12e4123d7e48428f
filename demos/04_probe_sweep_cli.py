"""The probe experiment, end to end through the experiment runner.

Sweeping the probe coefficient alpha over the line f + alpha * g and fitting
the risk slope at each point operationalizes the genericity claim: the rate
is the same at almost every point of the line.  The runner writes plot-ready
CSVs, a manifest with a content hash, and pass/fail verdicts; rerunning the
same config reproduces the outputs byte for byte.
"""

import json
import tempfile
from dataclasses import replace

from waverates.cli import run, validate_config

config = validate_config(json.dumps({
    "experiment_kind": "probe_sweep",
    "smoothness": {"s": 2, "r": 2, "p": 2, "d": 1},
    "truth_spec": {"kind": "generic_g", "base_amplitude": 256.0, "dither": 2.0},
    "estimator_spec": {"kind": "threshold_hard", "kappa": 2.0},
    "probe_alphas": [-1.0, -0.5, 0.5, 1.0],
    "n_grid": [2**j for j in range(10, 16)],
    "replicates": 16,
    "master_seed": 314159,
    "j_max": 12,
    "tolerances": {"spread": 0.05},
}))

# the config holds the science; where and on how many threads it runs is set here
with tempfile.TemporaryDirectory(prefix="waverates_sweep_") as out_dir:
    report = run(replace(config, output_dir=out_dir, threads=2))
    print("manifest hash:", report.manifest_hash)
    for verdict in report.verdicts:
        status = "PASS" if verdict["pass"] else "FAIL"
        print(f"{status} {verdict['criterion']}: spread = {verdict['measured']:.3g} "
              f"(tolerance {verdict['tolerance']})")
    print("\ntables (removed with their temporary directory when the demo ends):")
    for path in report.tables:
        print(" ", path)
print("\nsame experiment from a shell, keeping its tables:")
print("  waverates run --config sweep.json --out sweep_out --threads 2")
