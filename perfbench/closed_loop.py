"""Closed-loop measurement: one child process at a time, timed from spawn to exit.

Every ``waverates run`` child is checked.  A run fails when it exits nonzero
(a failed verdict or a crash), writes no ``report.json``, writes outputs that
differ byte for byte from the first run at the same thread count (same seed,
same output path), or writes CSV rows that differ from the 1-thread run's,
comment rows aside: the manifest hash in them covers ``threads``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import instrument

HERE = Path(__file__).resolve().parent
CHILD_LIMIT_S = 150.0  # a child still running after this is killed and counted as failed
BUDGET_S = 150.0  # no new run pair starts once the next would end after this
MIN_PAIRS = 2  # a second pair is the same-seed rerun the output check needs
SETUPS_PER_RUN = 4  # spread over the loop: host speed shifts within seconds


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    status: int


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WAVERATES_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], root: Path, log_path: Path, limit_s: float = CHILD_LIMIT_S) -> Child:
    """Run one child to completion; wall time and peak RSS are its own alone.

    Peak RSS comes from ``os.wait4`` on this child's pid.  The RUSAGE_CHILDREN
    maximum would instead be the largest over every child reaped so far.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=root, env=child_env(root),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s, usage.ru_maxrss / 1024.0, proc.returncode)


def take_outputs(out_dir: Path) -> dict[str, bytes]:
    """Every file of a run directory by relative name; the directory is removed."""
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(out_dir))] = path.read_bytes()
        shutil.rmtree(out_dir)
    return files


def table_rows(files: dict[str, bytes]) -> dict[str, list[bytes]]:
    """CSV tables without their comment rows."""
    return {name: [line for line in data.splitlines() if not line.startswith(b"#")]
            for name, data in files.items() if name.endswith(".csv")}


def output_problems(status: int, files: dict, same_threads: dict | None,
                    one_thread: dict | None) -> list[str]:
    """Why a run fails the output check; empty when it passes.

    same_threads is the first run's output at this thread count (None for
    that first run); one_thread the 1-thread reference for a 2-thread run.
    """
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if "report.json" not in files:
        problems.append("no report.json")
    if same_threads is not None and files != same_threads:
        problems.append("outputs differ from the same-seed, same-threads rerun")
    if one_thread is not None and table_rows(files) != table_rows(one_thread):
        problems.append("table rows differ from the --threads 1 run")
    return problems


def numerics(files: dict[str, bytes]) -> dict[str, float]:
    """Implied alphas of the slope tables and measured verdict values."""
    found = {}
    for name, data in sorted(files.items()):
        if name.startswith("slope_") and name.endswith(".csv"):
            rows = [line.split(",") for line in data.decode().splitlines()
                    if not line.startswith("#")]
            column = rows[0].index("implied_alpha")
            found[f"implied_alpha[{name[len('slope_'):-len('.csv')]}]"] = float(rows[1][column])
    if "report.json" in files:
        for verdict in json.loads(files["report.json"])["verdicts"]:
            if verdict["criterion"].endswith("spread"):
                found["probe_spread"] = verdict["measured"]
    return found


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    numerics: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures


class Workload:
    """One workload config run against the checkout at root, outputs under work."""

    def __init__(self, root: Path, config: Path, seed: int, work: Path):
        self.root, self.config, self.seed, self.work = root, config, seed, work
        self.outcome = Outcome()
        self._reference: dict[int, dict] = {}
        self._children = 0
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)

    def _log(self, label: str) -> Path:
        self._children += 1
        return self.work / f"{self._children:03d}_{label}.log"

    def setup(self) -> float:
        args = [str(HERE / "setup_child.py"), str(self.config), str(self.seed)]
        child = spawn(args, self.root, self._log("setup"))
        if child.status != 0:
            self.outcome.failures.append(f"set-up child: exit status {child.status}")
        return child.wall_s

    def run(self, threads: int, traced: bool = False) -> Child:
        """One checked ``waverates run`` child, plain or under the tracer."""
        out_dir = self.work / f"out_t{threads}"
        run_args = ["--config", str(self.config), "--out", str(out_dir),
                    "--seed", str(self.seed), "--threads", str(threads)]
        if traced:
            args = [str(HERE / "trace_child.py"), str(self._spans_path(threads)), *run_args]
        else:
            args = ["-m", "waverates.cli", "run", *run_args]
        label = f"{'traced' if traced else 'run'}_t{threads}"
        child = spawn(args, self.root, self._log(label))
        files = take_outputs(out_dir)
        reference = self._reference.setdefault(threads, files)
        problems = output_problems(
            child.status, files,
            None if reference is files else reference,
            self._reference.get(1) if threads != 1 else None,
        )
        self.outcome.attempted += 1
        self.outcome.failed += bool(problems)
        self.outcome.failures += [f"{label}: {p}" for p in problems]
        if not self.outcome.numerics and not problems:
            self.outcome.numerics = numerics(files)
        return child

    def _spans_path(self, threads: int) -> Path:
        return self.work / f"spans_t{threads}.json"

    def measure(self, seconds: float) -> Outcome:
        """End-to-end metrics: medians over run pairs and the set-up children between them."""
        began = time.perf_counter()
        self.setup()  # warm-up: bytecode and file caches
        setups: list[float] = []
        walls: dict[int, list[float]] = {1: [], 2: []}
        rss_2t: list[float] = []
        loop_start = time.perf_counter()
        pair_s = 0.0
        while len(walls[1]) < MIN_PAIRS or (
                time.perf_counter() - loop_start < seconds
                and time.perf_counter() - began + pair_s < BUDGET_S):
            pair_start = time.perf_counter()
            for threads in (1, 2):
                setups += [self.setup() for _ in range(SETUPS_PER_RUN)]
                child = self.run(threads)
                walls[threads].append(child.wall_s)
                if threads == 2:
                    rss_2t.append(child.rss_mb)
            pair_s = time.perf_counter() - pair_start
        out = self.outcome
        out.samples = {"setup_s": setups, "wall_s": walls[1], "wall_2t_s": walls[2],
                       "peak_rss_mb": rss_2t}
        units = {"wall_s": "s", "wall_2t_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        out.metrics = {name: {"value": statistics.median(out.samples[name]), "unit": unit}
                       for name, unit in units.items()}
        return out

    def trace(self) -> Outcome:
        """Per-layer metrics from traced runs at 1 and 2 threads."""
        self.setup()  # warm-up, as in measure
        plain = self.run(1)
        traced = {threads: self.run(threads, traced=True) for threads in (1, 2)}
        out = self.outcome
        spans = {}
        for threads in (1, 2):
            path = self._spans_path(threads)
            if not path.is_file():
                out.failures.append(f"traced_t{threads}: no span summary")
                return out
            spans[threads] = json.loads(path.read_text())
        out.notes += [f"not instrumented (absent): {name}" for name in spans[1]["missing"]]
        out.metrics = instrument.layer_metrics(spans[1], spans[2], plain.wall_s,
                                               traced[1].wall_s)
        layer_s = sum(entry["self_s"] for entry in spans[1]["spans"].values())
        out.notes.append(
            f"closure: layer self times {layer_s:.3f} s of traced main {spans[1]['main_s']:.3f} s"
            f" and traced child wall {traced[1].wall_s:.3f} s; the rest is interpreter start,"
            f" import and uninstrumented cli/rates code")
        out.samples = {"wall_s": [plain.wall_s], "traced_wall_s": [traced[1].wall_s],
                       "traced_wall_2t_s": [traced[2].wall_s]}
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
