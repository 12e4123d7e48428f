import numpy as np

from waverates import recordio
from waverates.dyadic import CoefficientTree
from waverates.generic import GenericFunctionSpec, build_g


def test_tree_round_trip(tmp_path):
    tree = CoefficientTree.from_items(
        1, 7, -0.125, [((1, 0), 0.3), ((5, 17), -1.0 / 3.0), ((7, 127), 1e-9)]
    )
    path = tmp_path / "tree.csv"
    recordio.write_tree(tree, path)
    back = recordio.read_tree(path)
    assert back.d == tree.d and back.j_max == tree.j_max
    assert back.scaling == tree.scaling
    for j in range(8):
        assert np.array_equal(back.level(j), tree.level(j))


def test_tree_round_trip_d2(tmp_path):
    tree = CoefficientTree.from_items(2, 3, 0.5, [((2, (1, 3)), 0.75), ((3, (0, 7)), -2.0)])
    path = tmp_path / "tree2.csv"
    recordio.write_tree(tree, path)
    back = recordio.read_tree(path)
    assert back.d == 2
    assert back.get(2, (1, 3)) == 0.75
    assert back.get(3, (0, 7)) == -2.0


def test_saturating_tree_round_trip_lossless(tmp_path):
    g = build_g(GenericFunctionSpec(s=2, r=2, d=1, j_max=8))
    path = tmp_path / "g.csv"
    recordio.write_tree(g, path)
    back = recordio.read_tree(path)
    for j in range(1, 9):
        assert np.array_equal(back.level(j), g.level(j))


def test_table_round_trip_with_hash(tmp_path):
    path = tmp_path / "risk.csv"
    rows = [(1024, 0.25, 0.01, 32), (2048, 1.0 / 3.0, 0.005, 32)]
    recordio.write_table(path, ["n", "risk", "std_error", "replicates"], rows, "abc123")
    text = path.read_text()
    assert text.startswith("# manifest_hash=abc123\n")
    header, data = recordio.read_table(path)
    assert header == ["n", "risk", "std_error", "replicates"]
    assert float(data[1][1]) == 1.0 / 3.0
