import numpy as np
import pytest

from waverates.dyadic import CoefficientTree
from waverates.wavelet import (
    DAUBECHIES_LOWPASS,
    GridSignal,
    WaveletFilter,
    _cascade_table,
    _quartic_form,
    _quartic_gram,
    _quartic_split,
    _quartic_sum,
    _refined_blocks,
    _wrapped,
    analyze,
    get_filter,
    lp_mean,
    lp_norm,
    synthesize,
)

FILTERS = ["haar", "db2", "db3", "db4", "db6", "db8", "db10"]


@pytest.mark.parametrize("vm", sorted(DAUBECHIES_LOWPASS))
def test_filter_tables_orthonormal(vm):
    taps = np.array(DAUBECHIES_LOWPASS[vm])
    assert abs(taps.sum() - np.sqrt(2.0)) < 1e-12
    assert abs(taps @ taps - 1.0) < 1e-12
    for m in range(1, vm):
        assert abs(taps[2 * m :] @ taps[: len(taps) - 2 * m]) < 1e-12
    filt = get_filter(f"db{vm}")
    assert filt.vanishing_moments == vm
    assert len(filt.taps) == 2 * vm


def test_filter_validation_rejects_bad_taps():
    with pytest.raises(ValueError):
        WaveletFilter("bad", np.array([1.0, 0.5]), 1)
    for name in ("db11", "db0", "sym4", ""):
        with pytest.raises(KeyError, match="unknown wavelet filter"):
            get_filter(name)

def periodized_haar(j, k, x):
    """2^{j/2} psi(2^j x - k) on [0, 1), psi = +1 on [0, 1/2), -1 on [1/2, 1)."""
    u = np.mod(2.0**j * x - k, 2.0**j)
    return 2.0 ** (j / 2.0) * np.where(u < 0.5, 1.0, np.where(u < 1.0, -1.0, 0.0))


def test_analyze_matches_haar_inner_product_oracle():
    # brute-force midpoint quadrature against explicit periodized Haar functions
    rng = np.random.default_rng(42)
    res = 9
    sig = GridSignal(res, rng.standard_normal(1 << res))
    tree = analyze(sig, get_filter("haar"), 5)
    x = sig.grid()
    assert abs(tree.scaling - np.mean(sig.samples)) < 1e-12
    for j in range(6):
        for k in range(1 << j):
            oracle = np.mean(sig.samples * periodized_haar(j, k, x))
            assert abs(tree.get(j, k) - oracle) < 1e-10, (j, k)


def test_analyze_special_cases():
    filt = get_filter("db4")
    tree = analyze(GridSignal(6, np.full(64, 2.5)), filt, 4)
    assert abs(tree.scaling - 2.5) < 1e-12
    assert tree.wavelet_energy() < 1e-24  # vanishing moments kill constants

    a = 0.8
    tr = analyze(GridSignal(2, a * np.array([1.0, 1.0, -1.0, -1.0])), get_filter("haar"), 1)
    assert abs(tr.get(0, 0) - a) < 1e-12
    assert abs(tr.scaling) < 1e-12
    assert abs(tr.get(1, 0)) < 1e-12 and abs(tr.get(1, 1)) < 1e-12


@pytest.mark.parametrize("name", FILTERS)
def test_round_trip_both_ways(name):
    filt = get_filter(name)
    rng = np.random.default_rng(3)
    res = 8
    sig = GridSignal(res, rng.standard_normal(1 << res))
    tree = analyze(sig, filt, res - 1)
    assert np.max(np.abs(synthesize(tree, filt, res).samples - sig.samples)) < 1e-10

    # sparse tree -> signal -> tree
    sparse = CoefficientTree.from_items(
        1, 5, 0.7, [((2, 1), 1.0), ((4, 9), -0.3), ((5, 17), 0.05)]
    )
    back = analyze(synthesize(sparse, filt, res), filt, 5)
    assert abs(back.scaling - sparse.scaling) < 1e-10
    for j in range(6):
        assert np.max(np.abs(back.level(j) - sparse.level(j))) < 1e-10


def test_analyze_deeper_than_tree_sees_zeros():
    filt = get_filter("db3")
    sparse = CoefficientTree.from_items(1, 3, 0.2, [((2, 3), 1.0)])
    sig = synthesize(sparse, filt, 9)
    deep = analyze(sig, filt, 8)
    for j in range(4, 9):
        assert np.max(np.abs(deep.level(j))) < 1e-10


def test_synthesize_single_haar_coefficient():
    tree = CoefficientTree.from_items(1, 2, 0.0, [((2, 1), 1.0)])
    sig = synthesize(tree, get_filter("haar"), 6)
    x = sig.grid()
    assert np.allclose(sig.samples, periodized_haar(2, 1, x))


def test_synthesize_constant():
    tree = CoefficientTree(1, 0, scaling=1.0)
    sig = synthesize(tree, get_filter("db5"), 7)
    assert np.max(np.abs(sig.samples - 1.0)) < 1e-12


def test_linearity():
    filt = get_filter("db2")
    rng = np.random.default_rng(11)
    s1 = rng.standard_normal(128)
    s2 = rng.standard_normal(128)
    a, b = 1.7, -0.4
    t1 = analyze(GridSignal(7, s1), filt, 5)
    t2 = analyze(GridSignal(7, s2), filt, 5)
    t12 = analyze(GridSignal(7, a * s1 + b * s2), filt, 5)
    combo = a * t1 + b * t2
    assert abs(t12.scaling - combo.scaling) < 1e-10
    for j in range(6):
        assert np.max(np.abs(t12.level(j) - combo.level(j))) < 1e-10


@pytest.mark.parametrize("name", ["haar", "db4", "db7"])
def test_parseval(name):
    filt = get_filter(name)
    rng = np.random.default_rng(23)
    tree = CoefficientTree(
        1, 6, rng.standard_normal(), {j: rng.standard_normal(1 << j) for j in range(7)}
    )
    sig = synthesize(tree, filt, 12)  # resolution j_max + 6
    lhs = lp_norm(sig, 2.0) ** 2
    assert abs(lhs - tree.total_energy()) / tree.total_energy() < 1e-8


def test_lp_norm_values():
    sig = GridSignal(5, np.full(32, -1.25))
    for p in (1.0, 2.0, 3.5, 4.0):
        assert abs(lp_norm(sig, p) - 1.25) < 1e-12
    x = GridSignal(6, np.random.default_rng(4).standard_normal(64))
    for p in (1.5, 4.0):
        want = np.mean(np.abs(x.samples) ** p) ** (1.0 / p)
        assert abs(lp_norm(x, p) - want) <= 1e-14 * want
    step = GridSignal(4, np.r_[np.ones(8), np.zeros(8)])
    assert abs(lp_norm(step, 4.0) - 0.5**0.25) < 1e-12
    with pytest.raises(ValueError):
        lp_norm(step, 0.5)


def test_transform_errors():
    filt = get_filter("db2")
    sig = GridSignal(4, np.zeros(16))
    with pytest.raises(ValueError):
        analyze(sig, filt, 4)  # j_max must be < resolution
    with pytest.raises(ValueError):
        analyze(GridSignal(1, np.zeros(2)), get_filter("db4"), 0)  # filter too long
    tree = CoefficientTree.zeros(1, 5)
    with pytest.raises(ValueError):
        synthesize(tree, filt, 5)  # resolution too coarse


def cascade_reference(tree, filt, res):
    """Level-by-level inverse cascade, zero details above j_max included.

    Step j: out[(2i + t) mod 2^(j+1)] += lo[t] a[i] + hi[t] d[i]; for a fixed
    tap t the target indices are distinct, so a fancy-index += is exact.
    """
    lo, hi = filt.taps, filt.highpass
    a = np.array([tree.scaling])
    for j in range(res):
        detail = tree.level(j) if j <= tree.j_max else np.zeros(1 << j)
        n = 2 * len(a)
        out = np.zeros(n)
        even = 2 * np.arange(len(a))
        for t in range(len(lo)):
            out[(even + t) % n] += lo[t] * a + hi[t] * detail
        a = out
    return a * 2.0 ** (res / 2.0)


def random_tree(rng, j_max):
    levels = {j: rng.standard_normal(1 << j) for j in range(j_max + 1)}
    return CoefficientTree(1, j_max, rng.standard_normal(), levels)


def assert_close_to_reference(tree, filt, res):
    want = cascade_reference(tree, filt, res)
    got = synthesize(tree, filt, res).samples
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (filt.name, res)


@pytest.mark.parametrize("vm", range(1, 11))
def test_synthesize_matches_level_by_level_cascade(vm):
    # res - j_max = 1 leaves no zero-detail tail; j_max = 0 puts a 2-sample
    # coarse grid under filters up to 20 taps long
    filt = get_filter(f"db{vm}")
    rng = np.random.default_rng(vm)
    for j_max in (0, 1, 3, 6):
        tree = random_tree(rng, j_max)
        for gap in range(1, 9):
            assert_close_to_reference(tree, filt, j_max + gap)


@pytest.mark.parametrize("name, j_max, res", [
    ("db3", 3, 17),   # many blocks of a few rows each
    ("db2", 0, 17),   # one row is longer than a block
    ("db10", 6, 16),  # two blocks
])
def test_synthesize_across_blocks_matches_cascade(name, j_max, res):
    assert_close_to_reference(random_tree(np.random.default_rng(res), j_max), get_filter(name), res)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_lp_mean_equals_lp_norm_of_synthesis(p):
    filt = get_filter("db4")
    tree = random_tree(np.random.default_rng(8), 6)
    coarse = synthesize(tree, filt, tree.j_max + 1)
    for res in (9, 17):  # one block, several blocks
        want = lp_norm(synthesize(tree, filt, res), p) ** p
        assert abs(lp_mean(coarse, filt, res, p) - want) <= 1e-12 * want


def test_lp_mean_rejects_p_below_one():
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_mean(GridSignal(3, np.ones(8)), get_filter("db2"), 6, 0.5)


def test_lp_mean_rejects_a_grid_coarser_than_the_signal():
    with pytest.raises(ValueError, match="coarser than the signal"):
        lp_mean(GridSignal(3, np.ones(8)), get_filter("db2"), 2, 4.0)


def block_quartic_sum(coarse, table):
    return sum(float(np.sum(block**4)) for _, block in _refined_blocks(coarse, table))


@pytest.mark.parametrize("vm", [1, 2, 3, 4, 10])
def test_quartic_form_matches_block_path(vm):
    # J = 1 and J = 3 give coarse grids shorter than most windows (wrap-around);
    # J = 14 spans several _FORM_WINDOWS blocks
    taps = get_filter(f"db{vm}").taps
    rng = np.random.default_rng(vm)
    for K in range(1, 7):
        table = _cascade_table(taps, K)
        form = _quartic_gram(table)
        for J in (1, 3, 14):
            coarse = rng.standard_normal(1 << J)
            want = block_quartic_sum(coarse, table)
            assert abs(_quartic_sum(coarse, form) - want) <= 1e-12 * want, (K, J)


def test_quartic_form_is_chosen_for_short_cascades_only():
    # the form for tables of at most three rows: db1, db2 from K = 2, db3 at K = 1
    taps = {vm: get_filter(f"db{vm}").taps.tobytes() for vm in (1, 2, 3, 4, 10)}
    assert [_quartic_form(taps[vm], 5) is not None for vm in taps] == [True, True, False,
                                                                       False, False]
    assert _quartic_form(taps[3], 1) is not None and _quartic_form(taps[3], 2) is None
    assert all(_quartic_form(taps[1], K) is not None for K in range(7))
    assert all(_quartic_form(taps[10], K) is None for K in range(1, 7))


@pytest.mark.parametrize("name", ["haar", "db2", "db3", "db4", "db10"])
def test_lp_mean_p4_matches_grid_quadrature(name):
    # levels decaying like 2^-j, refined K = 5 steps as the Monte Carlo loss
    # does: the form for haar and db2, the block path for the others
    filt = get_filter(name)
    rng = np.random.default_rng(7)
    tree = CoefficientTree(1, 7, 0.5, {j: 2.0 ** -j * rng.standard_normal(1 << j)
                                       for j in range(8)})
    want = lp_norm(synthesize(tree, filt, 13), 4.0) ** 4
    got = lp_mean(synthesize(tree, filt, 8), filt, 13, 4.0)
    assert abs(got - want) <= 1e-12 * want


def test_wrapped_holds_every_cyclic_window():
    # windows longer than the grid wrap more than once
    for n in (1, 2, 4, 8):
        coarse = np.arange(n, dtype=np.float64) + 0.5
        for shifts in range(1, 20):
            want = coarse[np.arange(1 - shifts, n) % n]
            assert _wrapped(coarse, shifts).tobytes() == want.tobytes()


def test_grid_signal_freezes_without_copying_float_arrays():
    samples = np.linspace(0.0, 1.0, 8)
    sig = GridSignal(3, samples)
    assert sig.samples is samples and not sig.samples.flags.writeable
    ints = GridSignal(2, [1, 2, 3, 4]).samples  # converted, then frozen
    assert ints.dtype == np.float64 and not ints.flags.writeable
    strided = np.arange(16.0)[::2]
    assert GridSignal(3, strided).samples.flags.c_contiguous
    with pytest.raises(ValueError, match="expected 8 samples"):
        GridSignal(3, np.zeros(7))


@pytest.mark.parametrize("name", ["haar", "db2"])
def test_quartic_split_mean_is_the_full_grid_lp_mean(name):
    # read depths 0 and 1 give coarse grids shorter than a window, those >= 6 an
    # empty tail; at C = 13 a cell holds up to 1024 tail windows
    filt, rng = get_filter(name), np.random.default_rng(4)
    truth = CoefficientTree(1, 6, 0.5, {j: rng.standard_normal(1 << j) * 2.0**-j
                                        for j in (0, 2, 3, 5, 6)})
    tails = set()
    for coarse_log2 in (7, 9, 13):
        fine = coarse_log2 + 5
        for read in range(coarse_log2):
            split = _quartic_split(truth, filt, read, coarse_log2, fine)
            # a K-step table of more than 2^15 phases
            if fine - read - 1 > 15:
                assert split is None, (coarse_log2, read)
                continue
            tails.add(split.cross is not None)
            estimate = CoefficientTree(1, read, -0.2, {j: rng.standard_normal(1 << j)
                                                       for j in range(read + 1)})
            diff = (synthesize(estimate, filt, coarse_log2).samples
                    - synthesize(truth, filt, coarse_log2).samples)
            want = lp_mean(GridSignal(coarse_log2, diff), filt, fine, 4.0)
            assert abs(split.mean(estimate) - want) <= 1e-12 * want, (coarse_log2, read)
    assert tails == {True, False}


def test_quartic_split_is_built_for_short_cascades_only():
    truth = CoefficientTree(1, 4, 0.0, {3: np.ones(8)})
    assert all(_quartic_split(truth, get_filter(f"db{vm}"), 2, 8, 13) is None
               for vm in (3, 4, 10))
    assert _quartic_split(truth, get_filter("db2"), 2, 8, 13) is not None
