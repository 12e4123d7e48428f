"""Counters and per-layer metrics of the benchmark's instrumentation."""

import json

import numpy as np
import pytest
from conftest import ROOT

import instrument
from instrument import Instrumentation, layer_metrics, synthesis_padding, tree_fingerprint
from tracer import Tracer, summarize
from waverates.dyadic import CoefficientTree
from waverates.wavelet import get_filter, synthesize


def hand_built_tree():
    # level 0 nonzero, level 1 absent, level 2 all zero, level 3 absent
    return CoefficientTree(d=1, j_max=3, scaling=1.0,
                           levels={0: np.array([0.5]), 2: np.zeros(4)})


def test_padding_counts_absent_zero_and_above_j_max_steps():
    # steps j = 0..4 produce 2, 4, 8, 16, 32 samples; only step 0 has detail
    assert synthesis_padding(hand_built_tree(), 5) == (4 + 8 + 16 + 32, 62)


def test_padding_is_zero_for_a_full_tree_at_j_max_plus_one():
    tree = CoefficientTree(d=1, j_max=2, levels={j: np.ones(1 << j) for j in range(3)})
    assert synthesis_padding(tree, 3) == (0, 14)


def test_synthesize_counter_feeds_padding_frac_and_grid_cells():
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    tree = hand_built_tree()
    signal = synthesize(tree, get_filter("db2"), 5)
    with tracer.span("models.sample_density"):
        instrumentation._on_synthesize({"tree": tree}, signal)
    instrumentation._on_synthesize({"tree": tree}, signal)
    trace = {"spans": summarize(tracer.spans), "counters": dict(tracer.counters)}
    metrics = layer_metrics(trace, trace, wall_s=1.0, traced_wall_s=1.0)
    assert metrics["wavelet.synthesize.padding_frac"]["value"] == pytest.approx(60 / 62)
    assert metrics["wavelet.synthesize.samples_out"]["value"] == 64
    assert metrics["models.sample_density.grid_cells"]["value"] == 32


def test_repeat_truth_frac_counts_trees_sampled_before():
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    first, second = hand_built_tree(), hand_built_tree() * 2.0
    for tree in (first, second, first, first):
        with tracer.span("models.sample_density"):
            pass
        instrumentation._on_sample_density({"f_tree": tree}, None)
    trace = {"spans": summarize(tracer.spans), "counters": dict(tracer.counters)}
    metrics = layer_metrics(trace, trace, wall_s=1.0, traced_wall_s=1.0)
    assert metrics["models.sample_density.repeat_truth_frac"]["value"] == 0.5
    assert tree_fingerprint(first) == tree_fingerprint(hand_built_tree())


def test_layer_metrics_group_self_times_and_ratios():
    def entry(total, self_s, calls=1):
        return {"calls": calls, "total_s": total, "self_s": self_s}

    trace_1t = {
        "spans": {
            "rates.monte_carlo_risk": entry(8.0, 1.0),
            "estimators.linear_estimate": entry(0.5, 0.5),
            "estimators.threshold_estimate": entry(0.25, 0.25),
            "dyadic.arith.sub": entry(0.75, 0.75),
            "dyadic.arith.total_energy": entry(0.5, 0.5),
        },
        "counters": {"estimators.kept": 10, "estimators.observed": 40},
    }
    trace_2t = {"spans": {"rates.monte_carlo_risk": entry(5.0, 0.5)}, "counters": {}}
    metrics = layer_metrics(trace_1t, trace_2t, wall_s=10.0, traced_wall_s=11.0)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["estimators.self_s"] == 0.75
    assert value["dyadic.arith.self_s"] == 1.25
    assert value["estimators.kept_frac"] == 0.25
    assert value["rates.speedup_2t"] == 1.6
    assert value["trace.overhead_frac"] == pytest.approx(0.1)
    assert value["trace.attributed_frac"] == pytest.approx(3.0 / 11.0)
    assert value["wavelet.synthesize.padding_frac"] == 0.0


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == instrument.PER_LAYER_UNITS
