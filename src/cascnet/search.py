"""Robustness measurement: critical-attack-size search, attack sweeps,
coupling-grid heatmaps, and strategy comparison batches.

The critical attack size is located by bisection on the attack scale. A
run votes broken when `RunResult.broken` holds, once at least one network
has lost every node: past that point the survival curve shows its sudden
drop, which is the transition these searches are meant to locate. Runners
built on the stochastic simulator decide breakdown by majority over a seed
batch; mean-field runners are deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import AttackSpec, Complete, CouplingMatrix, NetworkConfig
from .meanfield import DEFAULT_MAX_STEPS as MF_MAX_STEPS, RunResult, mf_run
from .montecarlo import (DEFAULT_MAX_STEPS as MC_MAX_STEPS, generate_graph,
                         graph_seed, mc_run)
from .strategies import FCC, CouplingStrategy

DEFAULT_TOL = 1e-3
DEFAULT_SEEDS = 100


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class CriticalResult:
    """Bisection outcome. `no_breakdown` is set when even the full-scale
    attack leaves every network with survivors (value is then 1.0)."""
    value: float
    no_breakdown: bool = False


@dataclass(frozen=True)
class SweepResult:
    attack_grid: tuple[float, ...]
    mean_fraction: tuple[float, ...]
    std_fraction: tuple[float, ...]
    n_runs: int

    def __post_init__(self):
        grid = self.attack_grid
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise SearchError("attack grid must be strictly increasing")
        if self.n_runs < 1:
            raise SearchError("need at least one run per grid point")


@dataclass(frozen=True)
class HeatmapResult:
    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    cells: tuple[tuple[float, ...], ...]  # cells[i][j] for (alpha_i, beta_j)
    clip_floor: float = 0.0

    def __post_init__(self):
        for g in (self.alpha_grid, self.beta_grid):
            if any(not (0.0 <= x <= 1.0) for x in g):
                raise SearchError("coupling grids must lie in [0, 1]")
        for row in self.cells:
            if any(c < self.clip_floor for c in row):
                raise SearchError("cells must not fall below the clip floor")

    @property
    def argmax(self) -> tuple[float, float]:
        arr = np.asarray(self.cells)
        i, j = np.unravel_index(int(np.argmax(arr)), arr.shape)
        return self.alpha_grid[i], self.beta_grid[j]

    @property
    def max_value(self) -> float:
        return max(max(row) for row in self.cells)


# ---------------------------------------------------------------------------
# Runners: map an attack scale to a breakdown verdict
# ---------------------------------------------------------------------------

def _unsettled(at: str, max_steps: int) -> SearchError:
    """A cut-off run has no final portion, and no verdict unless a network is empty."""
    return SearchError(f"a run at attack {at} reached max_steps = {max_steps} "
                       "with load still in flight, so its outcome is unknown")


def _vote(run: RunResult, scale: float, max_steps: int) -> bool:
    if run.non_converged and not run.broken:
        raise _unsettled(f"scale {scale!r}", max_steps)
    return run.broken


def make_meanfield_runner(cfgs: list[NetworkConfig], strategy: CouplingStrategy,
                          attack_shape: Sequence[float],
                          max_steps: int = MF_MAX_STEPS) -> Callable[[float], bool]:
    """Deterministic breakdown predicate over the attack scale."""

    def runner(scale: float) -> bool:
        attack = AttackSpec(tuple(scale * s for s in attack_shape))
        return _vote(mf_run(cfgs, attack, strategy, max_steps=max_steps), scale, max_steps)

    return runner


class GraphCache:
    """Per-(network, seed) graph reuse so repeated runs over the same seed
    batch do not regenerate topology."""

    def __init__(self, cfgs: list[NetworkConfig]):
        self.cfgs = cfgs
        self._store: dict[tuple[int, int], object] = {}

    def graphs(self, seed: int):
        out = []
        for i, cfg in enumerate(self.cfgs):
            key = (i, seed)
            if key not in self._store:
                self._store[key] = generate_graph(cfg.topology, cfg.node_count,
                                                  graph_seed(seed, i))
            out.append(self._store[key])
        return out


def make_montecarlo_runner(cfgs: list[NetworkConfig], strategy: CouplingStrategy,
                           attack_shape: Sequence[float], seeds: Sequence[int],
                           cache: GraphCache | None = None,
                           max_steps: int = MC_MAX_STEPS) -> Callable[[float], bool]:
    """Majority-over-seeds breakdown predicate over the attack scale."""
    if not seeds:
        raise SearchError("the Monte-Carlo runner needs at least one seed")
    cache = cache or GraphCache(cfgs)

    def runner(scale: float) -> bool:
        attack = AttackSpec(tuple(scale * s for s in attack_shape))
        broke = sum(_vote(mc_run(cfgs, attack, strategy, seed=s, max_steps=max_steps,
                                 graphs=cache.graphs(s)), scale, max_steps)
                    for s in seeds)
        return 2 * broke > len(seeds)

    return runner


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def critical_attack_size(runner: Callable[[float], bool],
                         tol: float = DEFAULT_TOL) -> CriticalResult:
    """Bisection on the attack scale for the smallest breaking attack.

    `runner(scale)` must report whether the system breaks down; breakdown is
    assumed monotone in the scale.
    """
    if not (0.0 < tol < 1.0):
        raise SearchError("tolerance must be in (0, 1)")
    if runner(0.0):
        raise SearchError("system breaks down with no attack")
    if not runner(1.0):
        return CriticalResult(1.0, no_breakdown=True)
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if runner(mid):
            hi = mid
        else:
            lo = mid
    return CriticalResult(0.5 * (lo + hi))


def attack_sweep(cfgs: list[NetworkConfig], strategy: CouplingStrategy,
                 grid: Sequence[float], attack_shape: Sequence[float] = (1.0, 0.0),
                 seeds: Sequence[int] | None = None,
                 cache: GraphCache | None = None,
                 max_steps: int = MC_MAX_STEPS) -> SweepResult:
    """Mean/std of the final surviving portion of the whole system per
    attack size, over a seed batch (default 100 seeds)."""
    if any(not (0.0 <= g <= 1.0) for g in grid):
        raise SearchError("attack grid must lie in [0, 1]")
    seeds = list(range(DEFAULT_SEEDS) if seeds is None else seeds)
    if not seeds:
        raise SearchError("the attack sweep needs at least one seed")
    cache = cache or GraphCache(cfgs)
    counts = tuple(c.node_count for c in cfgs)
    attacks = [AttackSpec(tuple(g * s for s in attack_shape)) for g in grid]
    portions: list[list[float]] = [[] for _ in grid]  # per point, in seed order
    # Seeds outside the points: one seed's runs share its cached population.
    for s in seeds:
        graphs = cache.graphs(s)
        for g, attack, runs in zip(grid, attacks, portions):
            out = mc_run(cfgs, attack, strategy, seed=s, max_steps=max_steps, graphs=graphs)
            if out.non_converged:
                raise _unsettled(f"scale {g!r}", max_steps)
            runs.append(out.surviving_portion(counts))
    return SweepResult(tuple(grid), tuple(float(np.mean(r)) for r in portions),
                       tuple(float(np.std(r)) for r in portions), len(seeds))


def meanfield_sweep(cfgs: list[NetworkConfig], strategy: CouplingStrategy,
                    grid: Sequence[float], attack_shape: Sequence[float] = (1.0, 0.0),
                    max_steps: int = MF_MAX_STEPS) -> SweepResult:
    """Final surviving portion of the whole system per attack size, from one
    deterministic mean-field run per point (spread 0, n_runs 1)."""
    counts = tuple(c.node_count for c in cfgs)
    means = []
    for g in grid:
        run = mf_run(cfgs, AttackSpec(tuple(g * s for s in attack_shape)), strategy,
                     max_steps=max_steps)
        if run.non_converged:
            raise _unsettled(f"scale {g!r}", max_steps)
        means.append(run.surviving_portion(counts))
    return SweepResult(tuple(grid), tuple(means), (0.0,) * len(means), 1)


def _grid(resolution: float) -> tuple[float, ...]:
    steps = round(1.0 / resolution)
    if abs(steps * resolution - 1.0) > 1e-9:
        raise SearchError("resolution must divide 1 evenly")
    return tuple(i * resolution for i in range(steps + 1))


def fcc_grid_sweep(cfgs: list[NetworkConfig],
                   attack_shape: Sequence[float] = (1.0, 0.0),
                   resolution: float = 0.05, clip_floor: float = 0.0,
                   tol: float = DEFAULT_TOL,
                   seeds: Sequence[int] | None = None,
                   use_meanfield: bool = False,
                   alpha_grid: Sequence[float] | None = None,
                   beta_grid: Sequence[float] | None = None,
                   max_steps: int | None = None) -> HeatmapResult:
    """Critical attack size per fixed (alpha, beta) coupling pair.

    By default the cells are measured with the node-level simulator over a
    shared seed batch; `use_meanfield` switches to the deterministic
    recursion. Cells whose critical size falls below `clip_floor` are
    reported as the floor. `max_steps` caps each run (default: the
    engine's own cap).
    """
    if len(cfgs) != 2:
        raise SearchError("coupling-grid sweep is defined for two networks")
    a_grid = tuple(alpha_grid) if alpha_grid is not None else _grid(resolution)
    b_grid = tuple(beta_grid) if beta_grid is not None else _grid(resolution)
    cache = GraphCache(cfgs)
    seeds = list(seeds) if seeds is not None else [0]
    steps = max_steps or (MF_MAX_STEPS if use_meanfield else MC_MAX_STEPS)
    cells = []
    for a in a_grid:
        row = []
        for b in b_grid:
            strat = FCC(CouplingMatrix.two_net(a, b))
            if use_meanfield:
                runner = make_meanfield_runner(cfgs, strat, attack_shape, steps)
            else:
                runner = make_montecarlo_runner(cfgs, strat, attack_shape,
                                                seeds, cache, steps)
            res = critical_attack_size(runner, tol)
            row.append(max(res.value, clip_floor))
        cells.append(tuple(row))
    return HeatmapResult(a_grid, b_grid, tuple(cells), clip_floor)


@dataclass(frozen=True)
class StrategyReport:
    name: str
    sweep: SweepResult
    critical: CriticalResult


def compare_strategies(cfgs: list[NetworkConfig],
                       strategies: dict[str, CouplingStrategy],
                       grid: Sequence[float],
                       attack_shape: Sequence[float] = (1.0, 0.0),
                       seeds: Sequence[int] | None = None,
                       tol: float = DEFAULT_TOL,
                       use_meanfield: bool = False,
                       max_steps: int | None = None) -> list[StrategyReport]:
    """Sweep + critical size per strategy, sharing one seed batch (and the
    generated graphs) across strategies for variance reduction. `max_steps`
    caps each run (default: the engine's own cap)."""
    steps = max_steps or (MF_MAX_STEPS if use_meanfield else MC_MAX_STEPS)
    seeds = list(range(DEFAULT_SEEDS)) if seeds is None else list(seeds)
    cache = GraphCache(cfgs)
    reports = []
    for name, strat in strategies.items():
        if use_meanfield:
            sweep = meanfield_sweep(cfgs, strat, grid, attack_shape, steps)
            runner = make_meanfield_runner(cfgs, strat, attack_shape, steps)
        else:
            sweep = attack_sweep(cfgs, strat, grid, attack_shape, seeds, cache, steps)
            runner = make_montecarlo_runner(cfgs, strat, attack_shape, seeds, cache,
                                            steps)
        reports.append(StrategyReport(name, sweep, critical_attack_size(runner, tol)))
    return reports


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def sweep_to_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["attack", "mean_fraction", "std", "n_runs"])
        for a, m, s in zip(result.attack_grid, result.mean_fraction,
                           result.std_fraction):
            w.writerow([repr(a), repr(m), repr(s), result.n_runs])


def heatmap_to_csv(result: HeatmapResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "beta", "critical_size"])
        for i, a in enumerate(result.alpha_grid):
            for j, b in enumerate(result.beta_grid):
                w.writerow([repr(a), repr(b), repr(result.cells[i][j])])
