"""Shared domain types: network configuration, attacks and coupling matrices.

The coupling matrix entry m[i, j] is the fraction of network i's failed
load redistributed into network j; every row must sum to 1 so that no
load is created or destroyed by the coupling itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec

ROW_SUM_TOL = 1e-12


class CouplingError(ValueError):
    """Coupling matrix violates row-stochasticity or entry bounds."""


@dataclass(frozen=True)
class Complete:
    pass


@dataclass(frozen=True)
class ErdosRenyi:
    mean_degree: float


@dataclass(frozen=True)
class BarabasiAlbert:
    mean_degree: float


@dataclass(frozen=True)
class EdgeListTopology:
    """Adjacency read from a text file with one "u v" pair per line."""
    path: str


Topology = Complete | ErdosRenyi | BarabasiAlbert | EdgeListTopology


@dataclass(frozen=True)
class NetworkConfig:
    id: int
    node_count: int
    load_dist: DistributionSpec
    space_dist: DistributionSpec
    topology: Topology = field(default_factory=Complete)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if isinstance(self.topology, (ErdosRenyi, BarabasiAlbert)):
            deg, hi = self.topology.mean_degree, self.node_count - 1
            # An ER edge probability, mean_degree / (node_count - 1), is at most 1.
            if isinstance(self.topology, ErdosRenyi) and not (0 < deg <= hi):
                raise ValueError(f"er mean_degree must be in (0, node_count - 1] "
                                 f"= (0, {hi}], got {deg}")
            if not (0 < deg < self.node_count):
                raise ValueError(f"mean_degree must be in (0, node_count), got {deg}")


@dataclass(frozen=True)
class AttackSpec:
    p: tuple[float, ...]

    def __post_init__(self):
        for pi in self.p:
            if not (0.0 <= pi <= 1.0):
                raise ValueError(f"attack fraction must be in [0, 1], got {pi}")


@dataclass(frozen=True)
class CouplingMatrix:
    m: tuple[tuple[float, ...], ...]

    @classmethod
    def from_array(cls, arr) -> "CouplingMatrix":
        a = np.asarray(arr, dtype=float)
        return cls(tuple(tuple(float(v) for v in row) for row in a))

    @classmethod
    def two_net(cls, alpha: float, beta: float) -> "CouplingMatrix":
        return cls(((alpha, 1.0 - alpha), (1.0 - beta, beta)))

    @classmethod
    def identity(cls, n: int) -> "CouplingMatrix":
        return cls(tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.m)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.m, dtype=float)

    def entry(self, i: int, j: int) -> float:
        return self.m[i][j]


def validate_coupling(cm: CouplingMatrix) -> None:
    """Raise CouplingError on the first out-of-range entry or bad row sum."""
    for i, row in enumerate(cm.m):
        if len(row) != cm.n:
            raise CouplingError(f"row {i} has {len(row)} entries, expected {cm.n}")
        for j, v in enumerate(row):
            if not (0.0 <= v <= 1.0):
                raise CouplingError(f"entry ({i}, {j}) = {v} outside [0, 1]")
        s = sum(row)
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise CouplingError(f"row {i} sums to {s!r}, expected 1 within {ROW_SUM_TOL}")


def is_valid_coupling(cm: CouplingMatrix) -> bool:
    try:
        validate_coupling(cm)
        return True
    except CouplingError:
        return False
