"""Set-up of one workload, timed by the benchmark from spawn to exit.

Usage: python perfbench/setup_child.py CONFIG SEED

Imports waverates, validates the workload config with SEED as its master
seed, and builds every truth tree its run uses: one per probe alpha for a
probe sweep, one otherwise.  That is everything ``waverates run`` does
before its first replicate.  The trees are built from the package's public
builders in the order ``waverates run`` builds them; only ``generic_g``
truths, the kind every workload uses, are supported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def build_truths(config) -> list:
    from waverates.generic import GenericFunctionSpec, build_g
    from waverates.truths import density_truth_tree, shell_tree

    spec = config.truth_spec
    if spec["kind"] != "generic_g":
        raise ValueError(f"set-up supports generic_g truths only, got {spec['kind']!r}")
    sm = config.smoothness
    if config.experiment_kind == "probe_sweep":
        alphas = config.probe_alphas
    else:
        alphas = (float(spec.get("probe_alpha", 0.7)),)
    base = float(spec.get("base_amplitude", 0.0))
    truths = []
    for alpha in alphas:
        tree = alpha * build_g(GenericFunctionSpec(s=sm.s, r=sm.r, d=sm.d, j_max=config.j_max))
        if base != 0.0:
            tree = tree + shell_tree(sm.s, sm.r, sm.d, config.j_max, base,
                                     dither=float(spec.get("dither", 0.0)),
                                     j_min=int(spec.get("j_min", 0)))
        if config.experiment_kind == "density_rate_fit":
            tree = density_truth_tree(tree)
        truths.append(tree)
    return truths


def main(argv: list[str]) -> int:
    config_path, seed = argv
    from waverates.cli import validate_config

    raw = json.loads(Path(config_path).read_text())
    raw["master_seed"] = int(seed)
    config = validate_config(json.dumps(raw))
    print(f"built {len(build_truths(config))} truth trees")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
