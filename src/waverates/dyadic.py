"""Dyadic index bookkeeping and the coefficient tree container.

Wavelet coefficients live on the dyadic grid (j, k) with scale j >= 0 and
position k in {0, ..., 2^j - 1}.  A tree stores them in one read-only float64
array in heap order: index 0 holds the scaling coefficient and index 2^j + k
holds c_{j,k}, so level j is the slice [2^j, 2^(j+1)).  The array ends after
the deepest populated level: its length is 2^(deepest + 1), or 1 when no
level is populated.  A level is populated when the tree was built with it or
the rule that made the tree keeps it (see CoefficientTree); the entries of
the other levels are zero, inside the array or past its end.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "MAX_DEPTH",
    "CoefficientTree",
    "level_list",
    "reduced_level_array",
]

# Deepest level a tree may hold, and the finest dyadic grid built from one:
# 2^24 doubles (128 MiB) per array.
MAX_DEPTH = 24


def reduced_level_array(j: int) -> np.ndarray:
    """Reduced scale J of every position k of level j, as one array of shape (2^j,).

    J is the scale of the irreducible form K / 2^J of k / 2^j: j less the
    trailing zero bits of k, and 0 for k = 0.
    """
    k = np.arange(1 << j, dtype=np.int64)
    # trailing zero count; k = 0 gets a sentinel larger than j
    tz = np.full(1 << j, j + 1, dtype=np.int64)
    nz = k > 0
    tz[nz] = np.log2(k[nz] & -k[nz]).astype(np.int64)
    return np.maximum(j - tz, 0)


def level_list(mask: int) -> list[int]:
    """The levels j whose bit 2^j is set in mask, in increasing j."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class CoefficientTree:
    """Wavelet coefficients c_{j,k} plus the coarse scaling coefficient.

    ``coeffs`` is the tree's heap-order array (see the module docstring) and
    ``populated`` the set of populated levels as a bit mask (bit j for level
    j).  ``levels`` maps each populated level j, in increasing j, to its view
    coeffs[2^j : 2^(j+1)]; levels absent from it are semantically zero.  The
    constructor takes the scaling coefficient and a mapping of level j to its
    values of shape (2^j,), and copies them; d must be 1 and 0 <= j_max <=
    MAX_DEPTH.

    The populated levels of a derived tree follow the rule that made it: the
    union of the operands' for + and -, the operand's for scalar *, and as
    the observation models and estimators document for theirs.  Instances
    are immutable: the array is read-only and arithmetic returns new trees.
    """

    def __init__(self, d: int, j_max: int, scaling: float = 0.0,
                 levels: Mapping[int, np.ndarray] | None = None):
        if d != 1:
            raise ValueError(f"dimension must be 1, got {d}")
        if not 0 <= j_max <= MAX_DEPTH:
            raise ValueError(f"j_max must lie in [0, {MAX_DEPTH}], got {j_max}")
        clean = {}
        for j, arr in (levels or {}).items():
            if not 0 <= j <= j_max:
                raise ValueError(f"level {j} outside [0, {j_max}]")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (1 << j,):
                raise ValueError(f"level {j} has shape {arr.shape}, expected {(1 << j,)}")
            clean[int(j)] = arr
        populated = sum(1 << j for j in clean)
        coeffs = np.zeros(1 << populated.bit_length())
        coeffs[0] = float(scaling)
        for j, arr in clean.items():
            coeffs[1 << j : 2 << j] = arr
        self._set(j_max, coeffs, populated)

    @classmethod
    def _of(cls, j_max: int, coeffs: np.ndarray, populated: int) -> "CoefficientTree":
        """The tree of a heap-order array whose unpopulated entries are zero,
        without the constructor's checks and copy; coeffs may run past the
        deepest populated level, and is cut there."""
        tree = object.__new__(cls)
        tree._set(j_max, coeffs[: 1 << populated.bit_length()], populated)
        return tree

    def _set(self, j_max, coeffs, populated) -> None:
        coeffs.flags.writeable = False
        vars(self).update(d=1, j_max=j_max, coeffs=coeffs, populated=populated)

    def __setattr__(self, name, value):
        raise AttributeError(f"CoefficientTree is immutable; cannot set {name!r}")

    def __reduce__(self):
        return CoefficientTree._of, (self.j_max, self.coeffs, self.populated)

    def __repr__(self) -> str:
        return (f"CoefficientTree(d={self.d}, j_max={self.j_max}, scaling={self.scaling!r}, "
                f"levels={level_list(self.populated)})")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zeros(cls, d: int, j_max: int) -> "CoefficientTree":
        return cls(d=d, j_max=j_max)

    @classmethod
    def from_items(cls, d, j_max, scaling, items) -> "CoefficientTree":
        """Build from an iterable of ((j, k), value) pairs."""
        levels: dict[int, np.ndarray] = {}
        for (j, k), value in items:
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
        """Populated level j -> its read-only view of coeffs, in increasing j."""
        return MappingProxyType({j: self.coeffs[1 << j : 2 << j]
                                 for j in level_list(self.populated)})

    def level(self, j: int) -> np.ndarray:
        """Dense array of level j (zeros when the level is unpopulated)."""
        if self.populated >> j & 1:
            return self.coeffs[1 << j : 2 << j]
        return np.zeros(1 << j)

    def get(self, j: int, k: int) -> float:
        if not self.populated >> j & 1:
            return 0.0
        return float(self.coeffs[1 << j : 2 << j][k])

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
        if len(a) == len(b):
            out = op(a, b)
        else:
            out = np.zeros(max(len(a), len(b)))
            out[: len(a)] = a
            op(out[: len(b)], b, out=out[: len(b)])
        return CoefficientTree._of(max(self.j_max, other.j_max), out,
                                   self.populated | other.populated)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, alpha):
        alpha = float(alpha)
        if not np.isfinite(alpha):  # inf * 0 would fill the unpopulated entries with nan
            raise ValueError(f"a tree can only be scaled by a finite number, got {alpha}")
        return CoefficientTree._of(self.j_max, alpha * self.coeffs, self.populated)

    __rmul__ = __mul__
