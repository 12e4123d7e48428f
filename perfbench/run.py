"""waverates benchmark: time-to-verdict of three Monte Carlo workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a config under ``perfbench/workloads/``; N becomes its master seed.
With ``--trace 0`` the run is closed-loop, one child at a time: pairs of
``waverates run`` children at ``--threads 1`` and ``--threads 2`` until S
seconds have passed and at least two pairs ran, each run preceded by a few
set-up children (import, config validation, truth builds).  It reports medians of
``wall_s``, ``wall_2t_s``, ``peak_rss_mb`` (of the 2-thread child) and
``setup_s``.  With ``--trace 1`` it runs one plain and two traced children
and reports the per-layer metrics of ``instrument.PER_LAYER_UNITS``.

Every run child passes the output check in ``closed_loop``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; failed / attempted is the failed-run fraction.
Exits 2 without a result when the checkout has no ``src/waverates``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import closed_loop

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE / "workloads"


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_line(root: Path, seed: int) -> str:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        # the ceiling keeps git from describing an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        described = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                                   env=env, capture_output=True, text=True, timeout=10)
        git = described.stdout.strip() if described.returncode == 0 else "not-a-repository"
    except (OSError, subprocess.TimeoutExpired):
        git = "unavailable"
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} L2={caches.get('L2', 'unknown')}"
            f" L3={caches.get('L3', 'unknown')} python={platform.python_version()}"
            f" numpy={numpy_version} git={git} seed={seed}")


def main(argv=None) -> int:
    names = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "waverates" / "__init__.py").is_file():
        print(f"no waverates sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = closed_loop.Workload(root, WORKLOADS / f"{args.workload}.json", args.seed,
                               root / ".perfbench_out")
    try:
        outcome = workload.trace() if args.trace else workload.measure(args.seconds)
    finally:
        workload.close()

    print(machine_line(root, args.seed))
    print(f"workload: {args.workload} trace={args.trace}")
    for name, entry in outcome.metrics.items():
        samples = outcome.samples.get(name)
        suffix = f" (median of {len(samples)})" if samples else ""
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}{suffix}")
    for name, values in outcome.samples.items():
        print(f"  samples {name}: " + " ".join(f"{v:.4f}" for v in values))
    if outcome.numerics:
        print("numerics: " + " ".join(f"{k}={v:.6g}" for k, v in outcome.numerics.items()))
    for note in outcome.notes:
        print(f"note: {note}")
    print(f"failed_frac = {outcome.failed}/{outcome.attempted}")
    for failure in outcome.failures:
        print(f"FAIL {failure}")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": outcome.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
