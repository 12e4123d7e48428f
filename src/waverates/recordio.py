"""CSV record streams for coefficient trees and experiment tables.

Every emitted table starts with comment rows (prefixed '#') carrying the
structural header or the manifest hash, followed by a named column header.
Floats are written with repr for lossless round trips.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .dyadic import CoefficientTree

__all__ = [
    "write_tree",
    "read_tree",
    "write_table",
    "read_table",
]


def write_tree(tree: CoefficientTree, path) -> None:
    """Record stream (j, k..., value), one row per nonzero coefficient."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# coefficient-tree,d={tree.d},j_max={tree.j_max},scaling={tree.scaling!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["j", "k", "value"] if tree.d == 1 else ["j", "k1", "k2", "value"])
        for idx, value in tree.items():
            writer.writerow([idx.j, *idx.k, repr(value)])


def read_tree(path) -> CoefficientTree:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if not header.startswith("# coefficient-tree,"):
            raise ValueError(f"{path}: not a coefficient-tree stream")
        meta = dict(item.split("=", 1) for item in header[2:].split(",")[1:])
        d, j_max = int(meta["d"]), int(meta["j_max"])
        scaling = float(meta["scaling"])
        reader = csv.reader(fh)
        next(reader)  # column header
        items = []
        for row in reader:
            j, *k, value = row
            items.append(((int(j), tuple(int(c) for c in k)), float(value)))
    return CoefficientTree.from_items(d, j_max, scaling, items)


def write_table(path, columns: list[str], rows, manifest_hash: str = "") -> None:
    """Generic experiment table: hash comment row, column header, data rows."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        if manifest_hash:
            fh.write(f"# manifest_hash={manifest_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read back a table written by write_table (comment rows skipped); raises
    ValueError for a missing column header or a row of another width."""
    path = Path(path)
    with path.open() as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError("no column header")
    ragged = [row for row in rows if len(row) != len(rows[0])]
    if ragged:
        raise ValueError(f"row {ragged[0]} has {len(ragged[0])} cells, the header {len(rows[0])}")
    return rows[0], rows[1:]
