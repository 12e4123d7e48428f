import numpy as np
import pytest

from waverates.dyadic import CoefficientTree, reduced_level_array
from waverates.generic import GenericFunctionSpec, build_g, weak_exclusion_witness
from waverates.spaces import besov_norm
from waverates.truths import probe_line_truth, shell_tree


def test_spec_validation():
    with pytest.raises(ValueError):
        GenericFunctionSpec(s=0.4, r=2, d=1, j_max=8)  # s <= d/r
    with pytest.raises(ValueError):
        GenericFunctionSpec(s=2, r=2, d=1, j_max=0)
    spec = GenericFunctionSpec(s=2, r=4, d=1, j_max=8)
    assert spec.exponent_a == 1.0 + 3.0 / 4.0


def test_build_g_hand_values():
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=8))
    # j=1, k=1: J=1 -> 2^{-2} * 2^{-1/2} / 1 = 2^{-2.5}
    assert abs(g.get(1, 1) - 2.0**-2.5) < 1e-15
    # j=4, k=0: J=0 -> 2^{-8} / 4^{2.5} = 2^{-13}
    assert abs(g.get(4, 0) - 2.0**-13) < 1e-15
    assert g.scaling == 0.0
    assert 0 not in g.levels  # level 0 left at zero


def test_build_g_depends_on_k_only_through_reduced_scale():
    g = build_g(GenericFunctionSpec(s=1.5, r=3, d=1, j_max=8))
    for j in range(1, 9):
        J = reduced_level_array(j, 1)
        vals = g.levels[j]
        for Jv in range(j + 1):
            block = vals[J == Jv]
            if block.size:
                assert np.max(np.abs(block - block[0])) < 1e-18


def test_build_g_monotone_decay_at_odd_positions():
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=10))
    prev = np.inf
    for j in range(1, 11):
        v = g.get(j, 1)  # odd position: J = j
        assert v < prev
        prev = v


def test_build_g_level_aggregates_bounded():
    # quantitative smoothness-ball membership: deep-level aggregates never
    # exceed the top of the probed window (they decay, slowly)
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=16))
    s, r, d = 2.0, 2.0, 1
    aggs = []
    for j in range(4, 17):
        level = g.levels[j]
        aggs.append(np.sum(np.abs(level) ** r) ** (1 / r) * 2.0 ** ((s - d / r + d / 2) * j))
    assert all(a <= 1.05 * aggs[0] for a in aggs)


def test_build_g_besov_norm_stable_in_depth():
    b12 = besov_norm(build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=12)), 2, 2)
    b16 = besov_norm(build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=16)), 2, 2)
    assert abs(b16 - b12) / b16 < 0.01


def test_build_g_d2():
    g = build_g(GenericFunctionSpec(s=2, r=2, d=2, j_max=4))
    # j=1, k=(1,1): J=1 -> 2^{-(2 - 1 + 1)} * 2^{-(2/2)} / 1 = 2^{-3}
    assert abs(g.get(1, (1, 1)) - 2.0**-3) < 1e-15


def witness_dict(eps, t_max, s=2.0, r=2.0, p=2.0):
    return dict(weak_exclusion_witness(s, r, p, 1, eps, t_max))


def test_witness_growth_matches_eps_p():
    w = witness_dict(0.1, 30)
    ts = np.arange(10, 31)
    slope = np.polyfit(ts, np.log2([w[t] for t in ts]), 1)[0]
    assert abs(slope - 0.2) <= 0.2 * 0.2  # within 20% of eps * p


def test_witness_small_eps_flat():
    w = witness_dict(0.01, 30)
    ts = np.arange(10, 31)
    slope = np.polyfit(ts, np.log2([w[t] for t in ts]), 1)[0]
    assert -0.05 <= slope <= 0.1


def test_witness_dense_count_scale():
    # the dense-range count aggregate reaches ~2^{t d p/(2s+d)}: log2 within 1
    # of 12 at t=30 for (s=2, p=2, d=1)
    t, s, d, p, r = 30, 2.0, 1, 2.0, 2.0
    js = np.arange(0, int(t / (s + d / 2)) + 1)
    sup = np.max(2.0 ** (d * p * js / 2.0) * (1 - 2.0 ** (-js * d)))
    assert abs(np.log2(sup) - 12.0) <= 1.0


def test_witness_envelope_growth_dominates_wobble():
    # the integer-level sups wobble, so pointwise monotonicity fails; over a
    # 5-step window the 2^{eps p t} envelope always wins
    w = witness_dict(0.1, 40)
    for t in range(10, 36):
        assert w[t + 5] >= w[t]


def test_witness_validation():
    with pytest.raises(ValueError):
        weak_exclusion_witness(2, 2, 2, 1, 0.25, 30)  # eps >= 1 - alpha_tilde
    with pytest.raises(ValueError):
        weak_exclusion_witness(2, 2, 2, 1, 0.0, 30)
    # the exponent comes from generic_alpha, whose SmoothnessParams need r >= 1 and p >= 1
    with pytest.raises(ValueError, match="r must be"):
        weak_exclusion_witness(2, 0.8, 2, 1, 0.1, 30)
    with pytest.raises(ValueError, match="p must be"):
        weak_exclusion_witness(2, 2, 0.5, 1, 0.1, 30)


def _same_bits(a: CoefficientTree, b: CoefficientTree) -> bool:
    return ((a.d, a.j_max, a.scaling) == (b.d, b.j_max, b.scaling)
            and list(a.levels) == list(b.levels)
            and all(a.levels[j].tobytes() == b.levels[j].tobytes() for j in a.levels))


@pytest.mark.parametrize("alpha,base,dither,j_min", [
    (0.7, 1024.0, 2.0, 0), (-1.0, 2.0, 0.0, 3), (-0.3, 64.0, 2.0, 2), (0.0, 1.0, 2.0, 2),
])
def test_probe_line_truth_is_alpha_g_plus_shell(alpha, base, dither, j_min):
    s, r, d, j_max = 2.0, 2.0, 1, 9
    got = probe_line_truth(s, r, d, j_max, base, alpha, dither=dither, j_min=j_min)
    want = (alpha * build_g(GenericFunctionSpec(s=s, r=r, d=d, j_max=j_max))
            + shell_tree(s, r, d, j_max, base, dither=dither, j_min=j_min))
    assert _same_bits(got, want)


def test_probe_line_truth_without_base_builds_no_shell():
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=7))
    for alpha in (-0.5, 0.7):
        got = probe_line_truth(2, 2, 1, 7, base_amplitude=0.0, alpha=alpha, dither=2.0)
        assert _same_bits(got, alpha * g)
        assert 0 not in got.levels  # g has no level 0; a zero shell would add one
