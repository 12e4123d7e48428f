"""Dyadic index bookkeeping and the coefficient tree container.

Wavelet coefficients live on the dyadic grid (j, k) with scale j >= 0 and
position k in {0, ..., 2^j - 1}^d.  The tree stores one dense value array per
populated level; levels that were never written are implicitly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "LevelIndex",
    "CoefficientTree",
    "reduced_level_array",
    "level_count",
]

_MAX_LEVEL_BITS = 62


def level_count(j: int, d: int) -> int:
    """Number of positions k at scale j in dimension d, i.e. 2**(j*d)."""
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if j < 0:
        raise ValueError(f"scale must be non-negative, got {j}")
    if j * d > _MAX_LEVEL_BITS:
        raise OverflowError(f"level population 2**{j * d} exceeds supported width")
    return 1 << (j * d)


@dataclass(frozen=True)
class LevelIndex:
    """A single dyadic index: scale j, position k (one coordinate per dimension)."""

    j: int
    k: tuple[int, ...]
    d: int = 1

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.j < 0:
            raise ValueError(f"scale must be non-negative, got {self.j}")
        k = self.k if isinstance(self.k, tuple) else (int(self.k),)
        object.__setattr__(self, "k", tuple(int(c) for c in k))
        if len(self.k) != self.d:
            raise ValueError(f"position {self.k} has {len(self.k)} coordinates, expected {self.d}")
        top = 1 << self.j
        for c in self.k:
            if not 0 <= c < top:
                raise ValueError(f"coordinate {c} outside [0, 2^{self.j})")


def reduced_level_array(j: int, d: int) -> np.ndarray:
    """Reduced scale J of every position at level j, as one dense array.

    For d=1 the result has shape (2^j,), for d=2 shape (2^j, 2^j), matching
    the level layout of CoefficientTree.  J is the scale of the irreducible
    form K / 2^J of k / 2^j: j less the trailing zero bits shared by every
    coordinate of k, and 0 for k = 0.
    """
    n = level_count(j, 1)
    k = np.arange(n, dtype=np.int64)
    # trailing zero count; k = 0 gets a sentinel larger than j
    tz = np.full(n, j + 1, dtype=np.int64)
    nz = k > 0
    tz[nz] = np.log2(k[nz] & -k[nz]).astype(np.int64)
    if d == 1:
        return np.maximum(j - tz, 0)
    if d == 2:
        tz2 = np.minimum(tz[:, None], tz[None, :])
        return np.maximum(j - tz2, 0)
    raise ValueError(f"dimension must be 1 or 2, got {d}")


def _level_shape(j: int, d: int) -> tuple[int, ...]:
    return (1 << j,) * d


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CoefficientTree:
    """Wavelet coefficients c_{j,k} plus the coarse scaling coefficient.

    ``levels`` maps a scale j to the dense value array for that level; scales
    absent from the map are semantically zero.  Instances are immutable: the
    arrays are frozen at construction and all arithmetic returns new trees.
    """

    d: int
    j_max: int
    scaling: float = 0.0
    levels: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.j_max < 0:
            raise ValueError(f"j_max must be non-negative, got {self.j_max}")
        clean = {}
        for j, arr in self.levels.items():
            if not 0 <= j <= self.j_max:
                raise ValueError(f"level {j} outside [0, {self.j_max}]")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != _level_shape(j, self.d):
                raise ValueError(
                    f"level {j} has shape {arr.shape}, expected {_level_shape(j, self.d)}"
                )
            clean[int(j)] = _freeze(arr)
        object.__setattr__(self, "levels", clean)
        object.__setattr__(self, "scaling", float(self.scaling))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zeros(cls, d: int, j_max: int) -> "CoefficientTree":
        return cls(d=d, j_max=j_max)

    @classmethod
    def from_items(cls, d, j_max, scaling, items) -> "CoefficientTree":
        """Build from an iterable of ((j, k), value) pairs; k may be an int for d=1."""
        levels: dict[int, np.ndarray] = {}
        for (j, k), value in items:
            if j not in levels:
                levels[j] = np.zeros(_level_shape(j, d))
            if d == 1:
                k = k[0] if isinstance(k, tuple) else k
                levels[j][k] = value
            else:
                levels[j][tuple(k)] = value
        return cls(d=d, j_max=j_max, scaling=scaling, levels=levels)

    # -- access ----------------------------------------------------------------

    def level(self, j: int) -> np.ndarray:
        """Dense array of level j (zeros when the level is unpopulated)."""
        if j in self.levels:
            return self.levels[j]
        return np.zeros(_level_shape(j, self.d))

    def get(self, j: int, k) -> float:
        if j not in self.levels:
            return 0.0
        if self.d == 1:
            k = k[0] if isinstance(k, tuple) else k
            return float(self.levels[j][k])
        return float(self.levels[j][tuple(k)])

    def items(self) -> Iterator[tuple[LevelIndex, float]]:
        """Iterate nonzero coefficients as (LevelIndex, value), coarse levels first."""
        for j in sorted(self.levels):
            arr = self.levels[j]
            for flat in np.flatnonzero(arr):
                k = np.unravel_index(flat, arr.shape)
                yield LevelIndex(j, tuple(int(c) for c in k), self.d), float(arr[k])

    def wavelet_energy(self) -> float:
        """Sum of squared wavelet coefficients (scaling excluded)."""
        return float(sum(np.sum(a * a) for a in self.levels.values()))

    def total_energy(self) -> float:
        return self.scaling**2 + self.wavelet_energy()

    # -- arithmetic -------------------------------------------------------------

    def _combine(self, other: "CoefficientTree", beta: float) -> "CoefficientTree":
        if other.d != self.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
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
