import math
import pickle

import numpy as np
import pytest

from waverates.dyadic import MAX_DEPTH, CoefficientTree, reduced_level_array
from waverates.truths import bump_tree


def gcd_oracle(j, k):
    """Irreducible form of k / 2^j via gcd with the denominator."""
    if k == 0:
        return 0, 0
    g = math.gcd(k, 1 << j)
    return j - int(math.log2(g)), k // g


@pytest.mark.parametrize(
    "j,k,expected",
    [
        (3, 3, (3, 3)),   # odd position: already irreducible
        (3, 4, (1, 1)),   # 4/8 -> 2/4 -> 1/2
        (5, 0, (0, 0)),   # 0/32 reduces fully
        (0, 0, (0, 0)),
        (10, 512, (1, 1)),
    ],
)
def test_reduce_dyadic_examples(j, k, expected):
    assert gcd_oracle(j, k) == expected
    assert reduced_level_array(j)[k] == expected[0]


def test_reduce_dyadic_exhaustive_vs_gcd():
    for j in range(11):
        vec = reduced_level_array(j)
        for k in range(1 << j):
            jo, ko = gcd_oracle(j, k)
            assert vec[k] == jo
            # irreducible: J = 0 or odd position
            assert jo == 0 or ko % 2 == 1
            # value preservation
            assert ko * (1 << (j - jo)) == k


def test_reduce_dyadic_idempotent():
    # an irreducible position K at its reduced scale J reduces to J again
    rng = np.random.default_rng(5)
    for _ in range(200):
        j = int(rng.integers(0, 14))
        k = int(rng.integers(0, 1 << j)) if j else 0
        jo, ko = gcd_oracle(j, k)
        assert reduced_level_array(jo)[ko] == jo


def test_tree_implicit_zeros_and_access():
    tree = CoefficientTree.from_items(1, 6, 0.5, [((3, 2), 1.25)])
    assert tree.get(3, 2) == 1.25
    assert tree.get(3, 1) == 0.0
    assert tree.get(5, 7) == 0.0  # absent level
    assert np.all(tree.level(5) == 0.0)
    items = list(tree.items())
    assert items == [(3, 2, 1.25)]
    assert tree.total_energy() == 0.25 + 1.25**2


def test_positions_off_the_grid_are_refused():
    # k = -1 at level 2 wrote position 3, k = 4 raised a bare IndexError
    for k in (-1, 4):
        with pytest.raises(ValueError, match=rf"position \(2, {k}\)"):
            CoefficientTree.from_items(1, 3, 0.0, [((2, k), 5.0)])
    tree = CoefficientTree.from_items(1, 3, 0.0, [((2, 3), 5.0)])
    for j, k in ((2, -1), (2, 4), (3, 8), (-1, 0), (MAX_DEPTH + 1, 0)):
        with pytest.raises(ValueError, match=rf"position \({j}, {k}\)"):
            tree.get(j, k)
    assert tree.get(2, 3) == 5.0 and tree.get(3, 7) == 0.0
    # a level past the grid, or past j_max, is refused before it is allocated
    with pytest.raises(ValueError, match=r"position \(40, 0\)"):
        CoefficientTree.from_items(1, 3, 0.0, [((40, 0), 1.0)])
    with pytest.raises(ValueError, match=r"level 5 outside \[0, 3\]"):
        CoefficientTree.from_items(1, 3, 0.0, [((5, 0), 1.0)])


def test_tree_shape_validation():
    with pytest.raises(ValueError):
        CoefficientTree(1, 4, 0.0, {2: np.zeros(3)})
    with pytest.raises(ValueError):
        CoefficientTree(1, 4, 0.0, {5: np.zeros(32)})  # above j_max
    for d in (0, 2):  # one dimension only
        with pytest.raises(ValueError, match=f"dimension must be 1, got {d}"):
            CoefficientTree(d, 3, 0.0, {2: np.zeros(4)})


def test_tree_immutable():
    tree = CoefficientTree.from_items(1, 4, 0.0, [((2, 1), 1.0)])
    with pytest.raises(ValueError):
        tree.levels[2][1] = 7.0


def test_tree_arithmetic():
    a = CoefficientTree.from_items(1, 4, 1.0, [((2, 1), 2.0)])
    b = CoefficientTree.from_items(1, 3, 0.5, [((2, 1), -1.0), ((3, 0), 4.0)])
    s = a + b
    assert s.scaling == 1.5 and s.j_max == 4
    assert s.get(2, 1) == 1.0 and s.get(3, 0) == 4.0
    d = a - b
    assert d.get(2, 1) == 3.0 and d.get(3, 0) == -4.0
    h = 0.5 * a
    assert h.scaling == 0.5 and h.get(2, 1) == 1.0


def test_heap_layout_ends_at_the_deepest_level_given():
    # index 0 is the scaling coefficient and [2^j, 2^(j+1)) is level j
    bump = bump_tree(1, 24, 3, 5, 2.0)
    assert bump.coeffs.size == 16 and list(bump.levels) == [0, 1, 2, 3]
    assert bump.coeffs[8 + 5] == 2.0 and np.count_nonzero(bump.coeffs) == 1
    empty = CoefficientTree.zeros(1, 24)
    assert empty.coeffs.size == 1 and not empty.levels and not empty.level(24).any()
    tree = CoefficientTree(1, 9, 0.5, {2: np.arange(4.0) + 1.0, 0: [7.0]})
    # every level the array holds, in increasing j, whatever the order given
    assert list(tree.levels) == [0, 1, 2] and tree.levels[1].tolist() == [0.0, 0.0]
    assert tree.coeffs.tolist() == [0.5, 7.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    assert tree.get(1, 1) == 0.0 and tree.get(3, 7) == 0.0 and tree.level(3).tolist() == [0.0] * 8
    assert not tree.coeffs.flags.writeable
    assert np.shares_memory(tree.levels[2], tree.coeffs)
    with pytest.raises(AttributeError):
        tree.j_max = 3
    copy = pickle.loads(pickle.dumps(tree))
    assert copy.levels.keys() == tree.levels.keys() and not copy.coeffs.flags.writeable
    assert copy.coeffs.tobytes() == tree.coeffs.tobytes()


def _random_tree(rng, j_max, levels, scaling=0.25):
    return CoefficientTree(1, j_max, scaling, {j: rng.standard_normal(1 << j) for j in levels})


def test_arithmetic_follows_the_per_level_rules():
    # + and - hold the levels of the longer operand's array and * the operand's,
    # each level holding what the per-level sum or product gives, bit for bit
    rng = np.random.default_rng(11)
    trees = [_random_tree(rng, 6, [1, 4]), _random_tree(rng, 3, [0, 2, 3], -1.0),
             _random_tree(rng, 9, [9]), CoefficientTree.zeros(1, 2),
             CoefficientTree(1, 5, 0.0, {2: np.zeros(4)})]  # an all-zero level stays
    for a in trees:
        for b in trees:
            for got, beta in ((a + b, 1.0), (a - b, -1.0)):
                assert got.levels.keys() == set(a.levels) | set(b.levels)
                assert got.j_max == max(a.j_max, b.j_max)
                assert got.scaling == a.scaling + beta * b.scaling
                for j, level in got.levels.items():
                    assert level.tobytes() == (a.level(j) + beta * b.level(j)).tobytes()
        for alpha in (0.0, -1.5, 3):
            got = alpha * a
            assert got.levels.keys() == a.levels.keys() and got.scaling == alpha * a.scaling
            for j, level in got.levels.items():
                assert level.tobytes() == (alpha * a.levels[j]).tobytes()
    with pytest.raises(ValueError, match="finite"):
        math.inf * trees[0]
