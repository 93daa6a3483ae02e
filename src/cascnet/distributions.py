"""Load and free-space distributions.

Three closed families are supported: uniform, shifted exponential and a
point mass. Node loads and free spaces are sampled independently from
these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DistributionError(ValueError):
    """Invalid distribution parameters."""


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo >= 0.0 and self.hi > self.lo):
            raise DistributionError(f"Uniform requires 0 <= lo < hi, got ({self.lo}, {self.hi})")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sf_geq(self, x: float) -> float:
        """P[X >= x]."""
        if x <= self.lo:
            return 1.0
        if x >= self.hi:
            return 0.0
        return 1.0 - (x - self.lo) / (self.hi - self.lo)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


@dataclass(frozen=True)
class ShiftedExponential:
    shift: float
    rate: float

    def __post_init__(self):
        if not (self.shift >= 0.0 and self.rate > 0.0):
            raise DistributionError(
                f"ShiftedExponential requires shift >= 0 and rate > 0, got ({self.shift}, {self.rate})"
            )

    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def sf_geq(self, x: float) -> float:
        if x <= self.shift:
            return 1.0
        # Rounded as 1 - (1 - exp(...)), not exp(...) alone; pinned runs rest on it.
        return 1.0 - (1.0 - math.exp(-self.rate * (x - self.shift)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.shift + rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class Point:
    value: float

    def __post_init__(self):
        if not self.value >= 0.0:
            raise DistributionError(f"Point requires value >= 0, got {self.value}")

    def mean(self) -> float:
        return self.value

    def sf_geq(self, x: float) -> float:
        # P[X >= x] keeps the atom when x hits it exactly.
        return 1.0 if self.value >= x else 0.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # A read-only zero-stride view: one float, however large n is. As a
        # float, Point(1) and Point(1.0), which compare equal, draw equal arrays.
        return np.broadcast_to(float(self.value), n)


DistributionSpec = Uniform | ShiftedExponential | Point


def dist_mean(d: DistributionSpec) -> float:
    return d.mean()


def dist_sf_geq(d: DistributionSpec, x: float) -> float:
    """P[X >= x]; survival probability used by the recursion."""
    if math.isinf(x):
        return 0.0
    return d.sf_geq(x)


def dist_sf_geq_arr(d: DistributionSpec, x) -> np.ndarray:
    """Vectorized P[X >= x]."""
    x = np.asarray(x, dtype=float)
    if isinstance(d, Uniform):
        return 1.0 - np.clip((x - d.lo) / (d.hi - d.lo), 0.0, 1.0)
    if isinstance(d, ShiftedExponential):
        return np.where(x <= d.shift, 1.0, np.exp(-d.rate * np.maximum(x - d.shift, 0.0)))
    if isinstance(d, Point):
        return (d.value >= x).astype(float)
    raise TypeError(f"unknown distribution {d!r}")
