"""Layer boundaries of waverates for the traced run, and the per-layer metrics.

``Instrumentation.install`` replaces each public function in ``TARGETS`` by a
traced wrapper, in every ``waverates`` module namespace that holds it (the
package imports functions by name, so ``models.synthesize`` and
``wavelet.synthesize`` are the same object and both must be wrapped).
Nothing under ``src/`` changes.  ``layer_metrics`` turns the span summaries
of a 1-thread and a 2-thread traced run into the named per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
import threading

import numpy as np

# (span name, module, attribute path, counter callback name or None)
TARGETS = (
    ("wavelet.synthesize", "waverates.wavelet", "synthesize", "_on_synthesize"),
    ("wavelet.lp_norm", "waverates.wavelet", "lp_norm", None),
    ("models.simulate_sequence", "waverates.models", "simulate_sequence", "_on_simulate"),
    ("models.sample_density", "waverates.models", "sample_density", "_on_sample_density"),
    ("models.empirical_coefficients", "waverates.models", "empirical_coefficients",
     "_on_empirical_coefficients"),
    ("estimators.linear_estimate", "waverates.estimators", "linear_estimate", "_on_estimate"),
    ("estimators.threshold_estimate", "waverates.estimators", "threshold_estimate",
     "_on_estimate"),
    ("estimators.density_linear_estimate", "waverates.estimators", "density_linear_estimate",
     "_on_estimate"),
    ("estimators.density_threshold_estimate", "waverates.estimators",
     "density_threshold_estimate", "_on_estimate"),
    ("dyadic.arith.sub", "waverates.dyadic", "CoefficientTree.__sub__", "_on_sub"),
    ("dyadic.arith.total_energy", "waverates.dyadic", "CoefficientTree.total_energy",
     "_on_total_energy"),
    ("rates.monte_carlo_risk", "waverates.rates", "monte_carlo_risk", None),
    ("truths.shell_tree", "waverates.truths", "shell_tree", None),
    ("truths.density_truth_tree", "waverates.truths", "density_truth_tree", None),
    ("generic.build_g", "waverates.generic", "build_g", None),
    ("cli.validate_config", "waverates.cli", "validate_config", None),
    ("recordio.write_table", "waverates.recordio", "write_table", "_on_write_table"),
)

# Per-layer metric name -> unit; the order is the order they are printed in.
PER_LAYER_UNITS = {
    "wavelet.synthesize.self_s": "s",
    "wavelet.synthesize.calls": "count",
    "wavelet.synthesize.samples_out": "count",
    "wavelet.synthesize.padding_frac": "ratio",
    "wavelet.lp_norm.self_s": "s",
    "models.simulate_sequence.self_s": "s",
    "models.simulate_sequence.draws": "count",
    "models.sample_density.self_s": "s",
    "models.sample_density.grid_cells": "count",
    "models.sample_density.repeat_truth_frac": "ratio",
    "models.empirical_coefficients.self_s": "s",
    "models.empirical_coefficients.point_levels": "count",
    "estimators.self_s": "s",
    "estimators.kept_frac": "ratio",
    "dyadic.arith.self_s": "s",
    "dyadic.arith.coeffs": "count",
    "rates.monte_carlo_risk.self_s": "s",
    "rates.speedup_2t": "ratio",
    "truths.self_s": "s",
    "generic.build_g.self_s": "s",
    "cli.validate_config.self_s": "s",
    "recordio.write_table.self_s": "s",
    "recordio.write_table.bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}


def synthesis_padding(tree, resolution_log2: int) -> tuple[int, int]:
    """(padding, total) inverse-step output samples of synthesizing tree.

    Step j (0 <= j < resolution_log2) combines 2^j approximation and 2^j
    detail coefficients into 2^(j+1) samples.  The step is padding when its
    detail input is absent (above j_max or never written) or all zero.
    """
    padding = total = 0
    for j in range(resolution_log2):
        produced = 2 << j
        total += produced
        detail = tree.levels.get(j) if j <= tree.j_max else None
        if detail is None or not detail.any():
            padding += produced
    return padding, total


def tree_fingerprint(tree) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((tree.d, tree.j_max, tree.scaling)).encode())
    for j in sorted(tree.levels):
        digest.update(j.to_bytes(2, "little"))
        digest.update(tree.levels[j].tobytes())
    return digest.hexdigest()


def _coefficients(tree) -> int:
    return sum(level.size for level in tree.levels.values())


class Instrumentation:
    """Wraps the TARGETS of an imported waverates package with one tracer's spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._sampled_truths: set[str] = set()
        self._lock = threading.Lock()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "waverates" or name.startswith("waverates.")]
        for span_name, module_name, path, callback in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            on_return = getattr(self, callback) if callback else None
            traced = self.tracer.wrap(span_name, original, on_return)
            if owner_path:  # a method: patch the class
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    # -- counters, called after the span closes -------------------------------

    def _on_synthesize(self, args, signal) -> None:
        padding, total = synthesis_padding(args["tree"], signal.resolution_log2)
        add = self.tracer.add
        add("wavelet.synthesize.samples_out", signal.samples.size)
        add("wavelet.synthesize.step_samples", total)
        add("wavelet.synthesize.padding_samples", padding)
        if self.tracer.inside("models.sample_density"):
            add("models.sample_density.grid_cells", signal.samples.size)

    def _on_simulate(self, args, obs) -> None:
        self.tracer.add("models.simulate_sequence.draws", 1 + _coefficients(obs.y))

    def _on_sample_density(self, args, sample) -> None:
        key = tree_fingerprint(args["f_tree"])
        with self._lock:
            repeat = key in self._sampled_truths
            self._sampled_truths.add(key)
        if repeat:
            self.tracer.add("models.sample_density.repeat_calls", 1)

    def _on_empirical_coefficients(self, args, beta) -> None:
        self.tracer.add("models.empirical_coefficients.point_levels",
                        args["sample"].n * len(beta.levels))

    def _on_estimate(self, args, estimate) -> None:
        observed = next(iter(args.values()))
        observed = getattr(observed, "y", observed)  # sequence observation or tree
        self.tracer.add("estimators.observed", _coefficients(observed))
        self.tracer.add("estimators.kept",
                        sum(int(np.count_nonzero(a)) for a in estimate.levels.values()))

    def _on_sub(self, args, result) -> None:
        self.tracer.add("dyadic.arith.coeffs", _coefficients(result))

    def _on_total_energy(self, args, _energy) -> None:
        self.tracer.add("dyadic.arith.coeffs", _coefficients(args["self"]))

    def _on_write_table(self, args, _none) -> None:
        self.tracer.add("recordio.write_table.bytes", os.path.getsize(args["path"]))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace_1t: dict, trace_2t: dict, wall_s: float, traced_wall_s: float) -> dict:
    """Per-layer metric values from two traced runs.

    trace_1t and trace_2t hold the ``spans`` summary and ``counters`` of the
    traced run at 1 and 2 threads; wall_s is the untraced 1-thread child's
    wall time and traced_wall_s the traced 1-thread child's, both spawn to exit.
    """
    spans, counters = trace_1t["spans"], trace_1t["counters"]

    def self_s(prefix: str) -> float:
        return sum(entry["self_s"] for name, entry in spans.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def mc_wall(trace: dict) -> float:
        return trace["spans"].get("rates.monte_carlo_risk", {}).get("total_s", 0.0)

    count = counters.get
    values = {
        "wavelet.synthesize.self_s": self_s("wavelet.synthesize"),
        "wavelet.synthesize.calls": calls("wavelet.synthesize"),
        "wavelet.synthesize.samples_out": count("wavelet.synthesize.samples_out", 0),
        "wavelet.synthesize.padding_frac": _ratio(count("wavelet.synthesize.padding_samples", 0),
                                                  count("wavelet.synthesize.step_samples", 0)),
        "wavelet.lp_norm.self_s": self_s("wavelet.lp_norm"),
        "models.simulate_sequence.self_s": self_s("models.simulate_sequence"),
        "models.simulate_sequence.draws": count("models.simulate_sequence.draws", 0),
        "models.sample_density.self_s": self_s("models.sample_density"),
        "models.sample_density.grid_cells": count("models.sample_density.grid_cells", 0),
        "models.sample_density.repeat_truth_frac": _ratio(
            count("models.sample_density.repeat_calls", 0), calls("models.sample_density")),
        "models.empirical_coefficients.self_s": self_s("models.empirical_coefficients"),
        "models.empirical_coefficients.point_levels":
            count("models.empirical_coefficients.point_levels", 0),
        "estimators.self_s": self_s("estimators"),
        "estimators.kept_frac": _ratio(count("estimators.kept", 0),
                                       count("estimators.observed", 0)),
        "dyadic.arith.self_s": self_s("dyadic.arith"),
        "dyadic.arith.coeffs": count("dyadic.arith.coeffs", 0),
        "rates.monte_carlo_risk.self_s": self_s("rates.monte_carlo_risk"),
        "rates.speedup_2t": _ratio(mc_wall(trace_1t), mc_wall(trace_2t)),
        "truths.self_s": self_s("truths"),
        "generic.build_g.self_s": self_s("generic.build_g"),
        "cli.validate_config.self_s": self_s("cli.validate_config"),
        "recordio.write_table.self_s": self_s("recordio.write_table"),
        "recordio.write_table.bytes": count("recordio.write_table.bytes", 0),
        "trace.overhead_frac": _ratio(traced_wall_s, wall_s) - 1.0,
        "trace.attributed_frac": _ratio(sum(e["self_s"] for e in spans.values()),
                                        traced_wall_s),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
