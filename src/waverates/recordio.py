"""CSV record streams for coefficient trees and experiment tables.

Every emitted table starts with comment rows (prefixed '#') carrying the
structural header or the manifest hash, followed by a named column header.
Floats are written with repr for lossless round trips.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .dyadic import CoefficientTree

__all__ = [
    "write_tree",
    "read_tree",
    "write_table",
    "read_table",
]


def write_tree(tree: CoefficientTree, path) -> None:
    """Record stream (j, k, value), one row per nonzero coefficient."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# coefficient-tree,d={tree.d},j_max={tree.j_max},scaling={tree.scaling!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["j", "k", "value"])
        for j, k, value in tree.items():
            writer.writerow([j, k, repr(value)])


def read_tree(path) -> CoefficientTree:
    """Read back a stream written by write_tree; raises ValueError naming the file
    for any other text: no coefficient-tree header, a header field missing, a
    row that is not (j, k, value) or that repeats a position, an infinite or
    NaN value, and what CoefficientTree.from_items refuses (a d other than 1,
    a j_max outside [0, MAX_DEPTH], a position off the tree's grid)."""
    with open(path) as fh:
        header = fh.readline().strip()
        rows = list(csv.reader(fh))[1:]  # below the column header
    try:
        if not header.startswith("# coefficient-tree,"):
            raise ValueError("not a coefficient-tree stream")
        meta = dict(item.split("=", 1) for item in header[2:].split(",")[1:])
        d, j_max, scaling = int(meta["d"]), int(meta["j_max"]), float(meta["scaling"])
        CoefficientTree(d, j_max)  # d and j_max checked before any row: d sets its columns
        items = {}
        for j, k, value in rows:
            j, k, value = int(j), int(k), float(value)
            if (j, k) in items:
                raise ValueError(f"position ({j}, {k}) repeats")
            items[j, k] = value
        bad = [v for v in (scaling, *items.values()) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"value {bad[0]} is not finite")
        return CoefficientTree.from_items(d, j_max, scaling, items.items())
    except KeyError as exc:
        raise ValueError(f"{path}: the header has no field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def read_table(path, manifest_hash: str) -> tuple[list[str], list[list[str]]]:
    """Read back a table write_table wrote under manifest_hash (comment rows
    skipped); raises ValueError for a hash row that is missing or names
    another, a missing column header or a row of another width."""
    path = Path(path)
    with path.open() as fh:
        rows = [row for row in csv.reader(fh) if row]
    hashes = [row[0] for row in rows if row[0].startswith("# manifest_hash=")]
    if hashes != [f"# manifest_hash={manifest_hash}"]:
        raise ValueError(f"its hash rows {hashes} are not the manifest's {manifest_hash}")
    rows = [row for row in rows if not row[0].startswith("#")]
    if not rows:
        raise ValueError("no column header")
    ragged = [row for row in rows if len(row) != len(rows[0])]
    if ragged:
        raise ValueError(f"row {ragged[0]} has {len(ragged[0])} cells, the header {len(rows[0])}")
    return rows[0], rows[1:]
