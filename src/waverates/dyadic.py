"""Dyadic index bookkeeping and the coefficient tree container.

Wavelet coefficients live on the dyadic grid (j, k) with scale j >= 0 and
position k in {0, ..., 2^j - 1}.  The tree stores one dense value array per
populated level; levels that were never written are implicitly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    trailing zero bits of k, and 0 for k = 0.
    """
    k = np.arange(1 << j, dtype=np.int64)
    # trailing zero count; k = 0 gets a sentinel larger than j
    tz = np.full(1 << j, j + 1, dtype=np.int64)
    nz = k > 0
    tz[nz] = np.log2(k[nz] & -k[nz]).astype(np.int64)
    return np.maximum(j - tz, 0)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CoefficientTree:
    """Wavelet coefficients c_{j,k} plus the coarse scaling coefficient.

    ``levels`` maps a scale j to the dense value array for that level; scales
    absent from the map are semantically zero.  The dimension d must be 1 and
    0 <= j_max <= MAX_DEPTH.
    Instances are immutable: the arrays are frozen at construction and all
    arithmetic returns new trees.
    """

    d: int
    j_max: int
    scaling: float = 0.0
    levels: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.d != 1:
            raise ValueError(f"dimension must be 1, got {self.d}")
        if not 0 <= self.j_max <= MAX_DEPTH:
            raise ValueError(f"j_max must lie in [0, {MAX_DEPTH}], got {self.j_max}")
        clean = {}
        for j, arr in self.levels.items():
            if not 0 <= j <= self.j_max:
                raise ValueError(f"level {j} outside [0, {self.j_max}]")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (1 << j,):
                raise ValueError(f"level {j} has shape {arr.shape}, expected {(1 << j,)}")
            clean[int(j)] = _freeze(arr)
        object.__setattr__(self, "levels", clean)
        object.__setattr__(self, "scaling", float(self.scaling))

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

    def level(self, j: int) -> np.ndarray:
        """Dense array of level j (zeros when the level is unpopulated)."""
        if j in self.levels:
            return self.levels[j]
        return np.zeros(1 << j)

    def get(self, j: int, k: int) -> float:
        if j not in self.levels:
            return 0.0
        return float(self.levels[j][k])

    def items(self) -> Iterator[tuple[int, int, float]]:
        """Iterate nonzero coefficients as (j, k, value), coarse levels first."""
        for j in sorted(self.levels):
            arr = self.levels[j]
            for k in np.flatnonzero(arr):
                yield j, int(k), float(arr[k])

    def wavelet_energy(self) -> float:
        """Sum of squared wavelet coefficients (scaling excluded)."""
        return float(sum(np.sum(a * a) for a in self.levels.values()))

    def total_energy(self) -> float:
        return self.scaling**2 + self.wavelet_energy()

    # -- arithmetic -------------------------------------------------------------

    def _combine(self, other: "CoefficientTree", beta: float) -> "CoefficientTree":
        j_max = max(self.j_max, other.j_max)
        levels = {}
        for j in set(self.levels) | set(other.levels):
            levels[j] = self.level(j) + beta * other.level(j)
        return CoefficientTree(self.d, j_max, self.scaling + beta * other.scaling, levels)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, alpha):
        alpha = float(alpha)
        return CoefficientTree(
            self.d,
            self.j_max,
            alpha * self.scaling,
            {j: alpha * a for j, a in self.levels.items()},
        )

    __rmul__ = __mul__
