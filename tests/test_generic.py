import math

import numpy as np
import pytest

from waverates.dyadic import CoefficientTree, reduced_level_array
from waverates.generic import GenericFunctionSpec, build_g, g_term, weak_exclusion_witness
from waverates.spaces import besov_norm
from waverates.truths import ShellTerm, _unit_term, shell_sum, shell_tree


def test_spec_validation():
    # the spec only holds the parameters; build_g refuses what it cannot build
    for spec, message in (((0.4, 2, 1, 8), "need s > 1/r"), ((2, 2, 1, 0), "j_min must lie in"),
                          ((2, 2, 1, 25), "j_max must lie in")):
        with pytest.raises(ValueError, match=message):
            build_g(GenericFunctionSpec(*spec))
    assert g_term(4) == ShellTerm(1.0, 1.0 + 3.0 / 4.0, 1, 0.0)


def test_build_g_hand_values():
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=8))
    # j=1, k=1: J=1 -> 2^{-2} * 2^{-1/2} / 1 = 2^{-2.5}
    assert abs(g.get(1, 1) - 2.0**-2.5) < 1e-15
    # j=4, k=0: J=0 -> 2^{-8} / 4^{2.5} = 2^{-13}
    assert abs(g.get(4, 0) - 2.0**-13) < 1e-15
    assert g.scaling == 0.0 and g.coeffs.size == 2 << 8
    assert g.levels[0].tolist() == [0.0]  # level 0 left at zero


def test_build_g_depends_on_k_only_through_reduced_scale():
    g = build_g(GenericFunctionSpec(s=1.5, r=3, d=1, j_max=8))
    for j in range(1, 9):
        J = reduced_level_array(j)
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
    # the construction is one-dimensional: d = 2 is refused before anything is built
    for d in (0, 2):
        with pytest.raises(ValueError, match=f"dimension must be 1, got {d}"):
            build_g(GenericFunctionSpec(s=2, r=2, d=d, j_max=4))


@pytest.mark.parametrize("term,message", [
    (ShellTerm(math.inf), "finite amplitude"), (ShellTerm(1.0, math.nan, 1), "damping"),
    (ShellTerm(1.0, dither=-1.0), "dither"), (ShellTerm(1.0, dither=math.inf), "dither"),
    (ShellTerm(1.0, 1.0, 0), r"j_min must lie in \[1, 6\]"),  # no damping at j = 0
    (ShellTerm(1.0, 0.0, 7), r"j_min must lie in \[0, 6\]"),
])
def test_shell_sum_refuses_a_term_it_cannot_build(term, message):
    with pytest.raises(ValueError, match=message):
        shell_sum(2, 2, 6, [ShellTerm(1.0), term])


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
    # a point of the probe line is the shell sum of alpha g and the base shell
    s, r, d, j_max = 2.0, 2.0, 1, 9
    got = shell_sum(s, r, j_max, [g_term(r, alpha), ShellTerm(base, 0.0, j_min, dither)])
    want = (alpha * build_g(GenericFunctionSpec(s=s, r=r, d=d, j_max=j_max))
            + shell_tree(s, r, d, j_max, base, dither=dither, j_min=j_min))
    assert _same_bits(got, want)


def _unit_term_reference(s, r, j_max, damping, j_min, dither):
    """_unit_term with a power and a mod per coefficient."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    coeffs = np.zeros(2 << j_max)
    for j in range(j_min, j_max + 1):
        J = reduced_level_array(j)
        vals = 2.0 ** (-(s - 1 / r + 0.5) * j - (1 / r) * J) / float(j) ** damping
        if dither > 0:
            k = np.arange(1 << j, dtype=np.float64)
            m = 2.0 ** (-dither * np.mod(k * golden + j * golden**2, 1.0))
            count = np.bincount(J).astype(np.float64)
            vals = vals * m * np.sqrt(count / np.bincount(J, weights=m * m))[J]
        coeffs[1 << j : 2 << j] = vals
    return coeffs


# (s, r, j_max, damping, j_min, dither): shells dithered or not, g terms, j_min > 0
@pytest.mark.parametrize("term", [(2.0, 2.0, 9, 0.0, 0, 2.0), (1.5, 2.0, 16, 2.5, 1, 0.0),
                                  (1.2, 1.0, 20, 0.0, 0, 2.0), (2.0, 2.0, 12, 0.0, 3, 1.0),
                                  (0.9, 4.0, 20, 1.75, 1, 0.0), (1.2, 1.0, 14, 4.0, 5, 3.0)])
def test_unit_term_matches_per_coefficient_formula(term):
    # one power per reduced scale, gathered, and x - floor(x) for x mod 1, bit for bit
    assert _unit_term.__wrapped__(*term).tobytes() == _unit_term_reference(*term).tobytes()


def test_probe_line_truth_without_base_builds_no_shell():
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=7))
    _unit_term.cache_clear()
    for alpha in (-0.5, 0.7):
        got = shell_sum(2, 2, 7, [g_term(2, alpha), ShellTerm(0.0, dither=2.0)])
        assert np.array_equal(got.coeffs, (alpha * g).coeffs) and got.coeffs.size == 2 << 7
        # the sum starts from +0.0, so the entries off every term are +0.0 at any alpha
        assert not np.signbit(got.coeffs[:2]).any()
    assert _unit_term.cache_info().misses == 1  # g alone
    # a zero term is not built, but its dither and j_min stay checked
    for kwargs, message in ((dict(dither=-1.0), "dither"), (dict(j_min=8), "j_min")):
        with pytest.raises(ValueError, match=message):
            shell_sum(2, 2, 7, [g_term(2, 0.7), ShellTerm(0.0, **kwargs)])
