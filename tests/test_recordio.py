import numpy as np
import pytest

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
    # a stream of a d = 2 tree (k1, k2 columns) is refused by its header
    path = tmp_path / "tree2.csv"
    path.write_text("# coefficient-tree,d=2,j_max=3,scaling=0.5\nj,k1,k2,value\n2,1,3,0.75\n")
    with pytest.raises(ValueError, match="tree2.csv: dimension must be 1, got 2"):
        recordio.read_tree(path)


def test_read_tree_refuses_positions_outside_their_level(tmp_path):
    path = tmp_path / "bad.csv"
    for row, message in [
        ("2,4,1.0", r"position \(2, 4\) outside the grid"),
        ("2,-1,1.0", r"position \(2, -1\) outside the grid"),
        ("-1,0,1.0", r"position \(-1, 0\) outside the grid"),
        ("4,0,1.0", r"level 4 outside \[0, 3\]"),
        ("2,1,3,1.0", "too many values to unpack"),  # one position per row
    ]:
        path.write_text(f"# coefficient-tree,d=1,j_max=3,scaling=0.0\nj,k,value\n{row}\n")
        with pytest.raises(ValueError, match="bad.csv: " + message):
            recordio.read_tree(path)


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
