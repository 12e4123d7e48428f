import math

import numpy as np
import pytest

from waverates.dyadic import CoefficientTree, reduced_level_array


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
