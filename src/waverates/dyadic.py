"""Dyadic index bookkeeping and the coefficient tree container.

Wavelet coefficients live on the dyadic grid (j, k) with scale j >= 0 and
position k in {0, ..., 2^j - 1}.  A tree stores them in one read-only float64
array in heap order: index 0 holds the scaling coefficient and index 2^j + k
holds c_{j,k}, so level j is the slice [2^j, 2^(j+1)).  The array holds
levels 0..J, its length being 2^(J + 1), or 1 when it holds no level; the
rule that made the tree sets J (see CoefficientTree), and the levels past
the array's end are zero.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "MAX_DEPTH",
    "CoefficientTree",
    "reduced_level_array",
]

# Deepest level a tree may hold, and the finest dyadic grid built from one:
# 2^24 doubles (128 MiB) per array.
MAX_DEPTH = 24


def reduced_level_array(j: int) -> np.ndarray:
    """Reduced scale J of every position k of level j, as one array of shape (2^j,).

    J is the scale of the irreducible form K / 2^J of k / 2^j: j less the
    trailing zero bits of k, and 0 for k = 0.  It is built level by level: an
    odd k / 2^i is irreducible (J = i), and an even k = 2k' has the reduced
    scale of k' / 2^(i - 1).  As k / 2^i = k 2^(j - i) / 2^j, every
    2^(j - i)-th entry of level j's array is level i's.
    """
    J = np.zeros(1, dtype=np.int64)
    for i in range(1, j + 1):
        finer = np.empty(2 * len(J), dtype=np.int64)
        finer[0::2] = J
        finer[1::2] = i
        J = finer
    return J


def _refuse_bools(**values) -> None:
    """Refuse a bool given for a number, as the config parser does: True would pass as 1."""
    for name, value in values.items():
        if isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")


def _check_tree_shape(d: int, j_max: int) -> None:
    """Refuse a dimension other than 1 and a depth outside [0, MAX_DEPTH]."""
    _refuse_bools(d=d, j_max=j_max)
    if d != 1:
        raise ValueError(f"dimension must be 1, got {d}")
    if not 0 <= j_max <= MAX_DEPTH:
        raise ValueError(f"j_max must lie in [0, {MAX_DEPTH}], got {j_max}")


def _check_position(j: int, k: int) -> None:
    """Refuse a position (j, k) off the grid of every tree: j outside [0, MAX_DEPTH],
    or k outside [0, 2^j)."""
    if not (0 <= j <= MAX_DEPTH and 0 <= k < 1 << j):
        raise ValueError(f"position ({j}, {k}) outside the grid: "
                         f"need 0 <= j <= {MAX_DEPTH} and 0 <= k < 2^j")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class CoefficientTree:
    """Wavelet coefficients c_{j,k} plus the coarse scaling coefficient.

    ``coeffs`` is the tree's heap-order array (see the module docstring), and
    ``levels`` maps each level j it holds, in increasing j, to its view
    coeffs[2^j : 2^(j+1)].  The constructor takes the scaling coefficient
    and a mapping of level j to its values of shape (2^j,), and copies them
    into an array that ends at the deepest level given; d must be 1 and
    0 <= j_max <= MAX_DEPTH.

    The array of a derived tree ends where the rule that made it says: at
    the longer operand's end for + and -, at the operand's for scalar *, and
    as the observation models and estimators document for theirs.  Instances
    are immutable: the array is read-only and arithmetic returns new trees.
    """

    d = 1  # the only dimension

    def __init__(self, d: int, j_max: int, scaling: float = 0.0,
                 levels: Mapping[int, np.ndarray] | None = None):
        _check_tree_shape(d, j_max)
        levels = {j: np.asarray(arr, dtype=np.float64) for j, arr in (levels or {}).items()}
        for j, arr in levels.items():
            if not 0 <= j <= j_max:
                raise ValueError(f"level {j} outside [0, {j_max}]")
            if arr.shape != (1 << j,):
                raise ValueError(f"level {j} has shape {arr.shape}, expected {(1 << j,)}")
        coeffs = np.zeros(1 << (max(levels, default=-1) + 1))
        coeffs[0] = float(scaling)
        for j, arr in levels.items():
            coeffs[1 << j : 2 << j] = arr
        vars(self).update(j_max=j_max, coeffs=_freeze(coeffs))

    @classmethod
    def _of(cls, j_max: int, coeffs: np.ndarray) -> "CoefficientTree":
        """The tree of a heap-order array of length 2^(J + 1), J <= j_max,
        made read-only, without the constructor's checks and copy."""
        tree = object.__new__(cls)
        vars(tree).update(j_max=j_max, coeffs=_freeze(coeffs))
        return tree

    def __setattr__(self, name, value):
        raise AttributeError(f"CoefficientTree is immutable; cannot set {name!r}")

    def __reduce__(self):
        return CoefficientTree._of, (self.j_max, self.coeffs)

    def __repr__(self) -> str:
        return (f"CoefficientTree(d={self.d}, j_max={self.j_max}, scaling={self.scaling!r}, "
                f"levels={list(self.levels)})")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zeros(cls, d: int, j_max: int) -> "CoefficientTree":
        return cls(d=d, j_max=j_max)

    @classmethod
    def from_items(cls, d, j_max, scaling, items) -> "CoefficientTree":
        """Build from an iterable of ((j, k), value) pairs, each at a position
        0 <= k < 2^j of a level 0 <= j <= j_max: the one grid check of a tree
        file's rows (read_tree) and of a bump (bump_tree)."""
        levels: dict[int, np.ndarray] = {}
        for (j, k), value in items:
            _check_position(j, k)
            if j > j_max:  # refused before its level is allocated
                raise ValueError(f"level {j} outside [0, {j_max}]")
            if j not in levels:
                levels[j] = np.zeros(1 << j)
            levels[j][k] = value
        return cls(d=d, j_max=j_max, scaling=scaling, levels=levels)

    # -- access ----------------------------------------------------------------

    @property
    def scaling(self) -> float:
        return float(self.coeffs[0])

    @cached_property
    def levels(self) -> Mapping[int, np.ndarray]:
        """Each level j the array holds -> its read-only view, in increasing j."""
        return MappingProxyType({j: self.coeffs[1 << j : 2 << j]
                                 for j in range(len(self.coeffs).bit_length() - 1)})

    def level(self, j: int) -> np.ndarray:
        """Dense array of level j (zeros past the array's end)."""
        return self.levels[j] if j in self.levels else np.zeros(1 << j)

    def get(self, j: int, k: int) -> float:
        """c_{j,k} for a position 0 <= k < 2^j (0 past the array's end)."""
        _check_position(j, k)
        return float(self.levels[j][k]) if j in self.levels else 0.0

    def items(self) -> Iterator[tuple[int, int, float]]:
        """Iterate nonzero coefficients as (j, k, value), coarse levels first."""
        for j, arr in self.levels.items():
            for k in np.flatnonzero(arr):
                yield j, int(k), float(arr[k])

    def wavelet_energy(self) -> float:
        """Sum of squared wavelet coefficients (scaling excluded), summed per
        level in increasing j."""
        return float(sum(np.sum(a * a) for a in self.levels.values()))

    def total_energy(self) -> float:
        return self.scaling**2 + self.wavelet_energy()

    # -- arithmetic -------------------------------------------------------------

    def _combine(self, other: "CoefficientTree", op) -> "CoefficientTree":
        """op(self, other) entrywise, the shorter array padded with zeros."""
        a, b = self.coeffs, other.coeffs
        out = np.zeros(max(len(a), len(b)))
        out[: len(a)] = a
        op(out[: len(b)], b, out=out[: len(b)])
        return CoefficientTree._of(max(self.j_max, other.j_max), out)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, alpha):
        alpha = float(alpha)
        if not np.isfinite(alpha):  # inf * 0 would fill the zero entries with nan
            raise ValueError(f"a tree can only be scaled by a finite number, got {alpha}")
        return CoefficientTree._of(self.j_max, alpha * self.coeffs)

    __rmul__ = __mul__
