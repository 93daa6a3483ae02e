"""Coupling strategies: fixed coefficients, size-based dynamic, and step-wise
optimization.

The step-wise optimizer (SWO) picks the coupling matrix that minimizes the
predicted total extra load emitted at the next step. The prediction for a
network depends on the matrix only through its inbound load r_k (the sum
of every pool times its column entry), so SWO solves for the inbound loads
and then turns them back into a matrix. With u_k = r_k / a_k the increment
per survivor (a_k survivors) and q_k the cumulative per-node extra load
before this redistribution, network k is predicted to emit

    (nodes failing next step in k) * (E[L_k] + q_k + u_k)

where the failing nodes are modelled per free-space family:

* uniform on [lo, hi]: (1 - p_k) N_k u_k / d_k at the window density
  1/d_k, zero for a dead network or one with q_k >= hi. The objective is
  then sum(w_k r_k^2 + g_k r_k), minimized exactly by water-filling over
  the inbound loads (Boyd & Vandenberghe, Convex Optimization, 5.5.3).
* shifted-exponential: a_k (1 - exp(-rate u_k)), by memorylessness.
* any other family: (1 - p_k) N_k (P[S >= q_k] - P[S >= q_k + u_k]).

Two networks with a non-uniform family are solved by a fixed-count zoom
over r_A; three or more require uniform free space.

Feasible inbound loads come from `SWO.bounds`. Two networks, with in-net
coefficients alpha = m[0][0] in [lo_a, hi_a] and beta = m[1][1] in
[lo_b, hi_b] and pools P_A, P_B: r_A in [lo_a P_A + (1 - hi_b) P_B,
hi_a P_A + (1 - lo_b) P_B] and r_B = P - r_A. Three or more, every entry in
[lo, hi]: lo P <= r_k <= hi P with sum(r) = P. A dead network is pinned at
its lower bound, because load sent there is only held and forwarded a step
later; it takes more only when the live networks' upper bounds cannot hold
P, in index order.

Back to a matrix: three or more networks get identical rows r / P. Two
networks get the smallest alpha that yields r_A, alpha = clip((r_A -
(1 - lo_b) P_B) / P_A, lo_a, hi_a) (lo_a when P_A = 0), and the beta that
yields r_A with it (lo_b when P_B = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CouplingMatrix, validate_coupling
from .distributions import (DistributionSpec, ShiftedExponential, Uniform,
                            dist_sf_geq, dist_sf_geq_arr)

# Zoom over r_A for two networks with non-uniform free space: each pass
# evaluates a fixed grid and narrows to the two cells around its minimum.
ZOOM_PASSES = 4
ZOOM_POINTS = 41


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class NetView:
    """Per-network snapshot handed to a strategy when it picks a matrix.

    pool is the total extra load the network is about to redistribute
    (the newly failed nodes' carried load); q_cum is the cumulative average
    extra load per surviving node before that redistribution lands.
    """
    n_alive: float
    pool: float
    q_cum: float
    q_step: float
    frac_failed: float
    attack_frac: float
    node_count: float
    load_mean: float
    space_dist: DistributionSpec


@dataclass(frozen=True)
class FCC:
    matrix: CouplingMatrix

    def __post_init__(self):
        validate_coupling(self.matrix)


@dataclass(frozen=True)
class SBD:
    pass


@dataclass(frozen=True)
class SWO:
    # Two networks: one (lo, hi) pair per in-net coefficient, or a single pair
    # for both. Three or more: a single pair, applied to every matrix entry.
    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0),)

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not (0.0 <= lo <= hi <= 1.0):
                raise StrategyError(f"SWO bounds must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")

    def bound(self, i: int) -> tuple[float, float]:
        if len(self.bounds) == 1:
            return self.bounds[0]
        return self.bounds[i]


CouplingStrategy = FCC | SBD | SWO


@dataclass(frozen=True)
class CouplingDecision:
    matrix: CouplingMatrix
    objective_value: float | None = None  # SWO: swo_objective(matrix, views)


def sbd_coefficients(n_alive_a: float, n_alive_b: float) -> tuple[float, float]:
    total = n_alive_a + n_alive_b
    if total <= 0:
        raise StrategyError("SBD undefined with no survivors in either network")
    return n_alive_a / total, n_alive_b / total


def _sbd_matrix(views: list[NetView]) -> CouplingMatrix:
    weights = np.array([max(v.n_alive, 0.0) for v in views])
    total = weights.sum()
    if total <= 0:
        raise StrategyError("SBD undefined with no survivors")
    row = weights / total
    return CouplingMatrix.from_array(np.tile(row, (len(views), 1)))


# ---------------------------------------------------------------------------
# SWO model
# ---------------------------------------------------------------------------

def _model_pool(view: NetView, r):
    """Predicted extra load a network emits next step when it receives
    inbound load r (scalar or array), by the model in the module docstring.

    Inside the support the uniform and shifted-exponential forms equal the
    exact survival law; below it they keep charging, so the optimizer never
    sees a spurious free dump.
    """
    r = np.asarray(r, dtype=float)
    if view.n_alive <= 0:
        return np.zeros_like(r)
    u = r / view.n_alive
    sd = view.space_dist
    if isinstance(sd, Uniform):
        if view.q_cum >= sd.hi:
            return np.zeros_like(r)
        dead = (1.0 - view.attack_frac) * view.node_count * u / (sd.hi - sd.lo)
    elif isinstance(sd, ShiftedExponential):
        dead = view.n_alive * (1.0 - np.exp(-sd.rate * u))
    else:
        sf_now = dist_sf_geq(sd, view.q_cum)
        sf_new = dist_sf_geq_arr(sd, view.q_cum + u)
        dead = (1.0 - view.attack_frac) * view.node_count * (sf_now - sf_new)
    return dead * (view.load_mean + view.q_cum + u)


def swo_objective(matrix: CouplingMatrix, views: list[NetView]) -> float:
    """Predicted next-step total extra load under `matrix`: the model pool
    of every network at the inbound load the matrix sends it."""
    inbound = matrix.as_array().T @ np.array([v.pool for v in views])
    return float(sum(_model_pool(v, r) for v, r in zip(views, inbound)))


# ---------------------------------------------------------------------------
# SWO solvers, in shares x = r / P of the total pool
# ---------------------------------------------------------------------------

def _water_fill(w: np.ndarray, g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimizer of sum(w*x**2 + g*x) over {lo <= x <= hi : sum(x) = 1}, w >= 0.

    KKT: x_k = clip((lam - g_k) / (2 w_k), lo_k, hi_k), or for w_k = 0, lo_k
    below lam = g_k and hi_k above it. sum(x) is piecewise linear in lam
    between the breakpoints g + 2*w*lo and g + 2*w*hi, so lam is found
    exactly from the sorted breakpoints. Ties (w_k = 0, g_k = lam) take the
    leftover in index order, each up to hi_k. With w = 1, g = -2y this
    projects y onto the set.
    """
    if lo.sum() > 1.0 + 1e-12 or hi.sum() < 1.0 - 1e-12:
        raise StrategyError(f"infeasible bounds: lower bounds sum to {lo.sum():.6g}, "
                            f"upper bounds to {hi.sum():.6g}; a row must sum to 1")
    pos = w > 0
    inv = np.where(pos, 0.5 / np.where(pos, w, 1.0), 0.0)

    def at(lam, ties_high: bool) -> np.ndarray:
        step = (g <= lam) if ties_high else (g < lam)
        return np.where(pos, np.minimum(np.maximum((lam - g) * inv, lo), hi),
                        np.where(step, hi, lo))

    bps = np.sort(np.concatenate([g + 2.0 * w * lo, g + 2.0 * w * hi]))
    # First breakpoint whose sum, ties at hi, reaches 1 (sums are non-decreasing).
    j = min(int(np.searchsorted(at(bps[:, None], True).sum(axis=1), 1.0)), bps.size - 1)
    x = at(bps[j], False)
    if x.sum() <= 1.0 or j == 0:  # lam = bps[j]
        ties = ~pos & (g == bps[j])
        room = (hi - lo)[ties]
        x[ties] += np.clip(1.0 - x.sum() - (np.cumsum(room) - room), 0.0, room)
        return x
    # lam lies inside (bps[j-1], bps[j]), where every entry is affine in lam:
    # interpolate between the two ends to where the row sums to 1 (no lam - g
    # cancellation, so no entry is lost to rounding).
    below = at(bps[j - 1], True)
    theta = (1.0 - below.sum()) / (x.sum() - below.sum())
    return np.minimum(below + theta * (x - below), x)


def _share_bounds(strategy: SWO, shares: np.ndarray, dead: np.ndarray):
    """Per-network bounds on the inbound share r_k / P (module docstring)."""
    n = shares.size
    if n == 2:
        lo_in, hi_in = np.array([strategy.bound(0), strategy.bound(1)]).T
        lo = lo_in * shares + (1.0 - hi_in[::-1]) * shares[::-1]
        hi = hi_in * shares + (1.0 - lo_in[::-1]) * shares[::-1]
    else:
        if len(strategy.bounds) > 1:
            raise StrategyError(f"SWO on {n} networks takes a single bounds pair")
        lo, hi = (np.full(n, b) for b in strategy.bounds[0])
    room = np.where(dead, hi - lo, 0.0)
    hi = np.where(dead, lo, hi)
    spill = 1.0 - hi.sum()  # what the live networks cannot hold
    if spill > 0.0:
        hi += np.clip(spill - (np.cumsum(room) - room), 0.0, room)
    return lo, hi


def _uniform_shares(views: list[NetView], total: float, lo, hi) -> np.ndarray:
    """Exact minimizer for uniform free space: sum(w_k r_k^2 + g_k r_k) with
    w_k = c_k / a_k^2, g_k = c_k (E[L_k] + q_k) / a_k, c_k = (1 - p_k) N_k / d_k
    (zero for a dead network or one at or past the top of its support).
    Zero-cost networks tie: leftover load fills them in index order. With
    P = 0 or every c_k = 0 the SBD row, projected onto the bounds, is used."""
    n = len(views)
    alive = np.array([max(v.n_alive, 0.0) for v in views])
    c, ell = np.zeros(n), np.zeros(n)
    for k, v in enumerate(views):
        if v.n_alive > 0 and v.q_cum < v.space_dist.hi:  # else zero cost (q_cum may be inf)
            c[k] = (1.0 - v.attack_frac) * v.node_count / (v.space_dist.hi - v.space_dist.lo)
            ell[k] = v.load_mean + v.q_cum
    inv_alive = np.where(alive > 0, 1.0 / np.maximum(alive, 1e-300), 0.0)
    if total > 0.0 and c.any():
        # Shares x = r / P scale the weights to (w * P, g).
        return _water_fill(c * inv_alive ** 2 * total, c * ell * inv_alive, lo, hi)
    return _water_fill(np.ones(n), -2.0 * alive / alive.sum(), lo, hi)


def _zoom_shares(views: list[NetView], total: float, lo, hi) -> np.ndarray:
    """Two networks, any free space: ZOOM_PASSES grids of ZOOM_POINTS shares
    of network A, each narrowed to the cells around the previous minimum
    (the first minimum on ties)."""
    va, vb = views
    a, b = lo[0], hi[0]
    for _ in range(ZOOM_PASSES):
        x = np.linspace(a, b, ZOOM_POINTS)
        i = int(np.argmin(_model_pool(va, x * total) + _model_pool(vb, (1.0 - x) * total)))
        a, b = x[max(i - 1, 0)], x[min(i + 1, ZOOM_POINTS - 1)]
    return np.array([x[i], 1.0 - x[i]])


def _two_net_matrix(strategy: SWO, r_a: float, pools: np.ndarray) -> CouplingMatrix:
    """The smallest alpha yielding inbound r_A, then beta from r_A."""
    (lo_a, hi_a), (lo_b, hi_b) = strategy.bound(0), strategy.bound(1)
    p_a, p_b = float(pools[0]), float(pools[1])
    alpha = min(max((r_a - (1.0 - lo_b) * p_b) / p_a, lo_a), hi_a) if p_a > 0 else lo_a
    beta = min(max(1.0 - (r_a - alpha * p_a) / p_b, lo_b), hi_b) if p_b > 0 else lo_b
    return CouplingMatrix.two_net(alpha, beta)


def _swo_matrix(strategy: SWO, views: list[NetView]) -> CouplingMatrix:
    n = len(views)
    if n < 2:
        raise StrategyError("SWO needs at least two networks")
    pools = np.array([v.pool for v in views])
    total = pools.sum()
    # With P = 0 a two-network matrix is (lo_a, lo_b) whatever the shares.
    shares = pools / total if total > 0.0 else np.full(n, 1.0 / n)
    lo, hi = _share_bounds(strategy, shares, np.array([v.n_alive <= 0 for v in views]))
    if all(isinstance(v.space_dist, Uniform) for v in views):
        x = _uniform_shares(views, total, lo, hi)
    elif n == 2:
        x = _zoom_shares(views, total, lo, hi)
    else:
        raise StrategyError(f"SWO on {n} networks requires uniform free-space distributions")
    if n == 2:
        return _two_net_matrix(strategy, float(x[0] * total), pools)
    cm = CouplingMatrix.from_array(np.tile(x, (n, 1)))
    validate_coupling(cm)
    return cm


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def decide(strategy: CouplingStrategy, views: list[NetView], t: int) -> CouplingDecision:
    n = len(views)
    if all(v.n_alive <= 0 for v in views):
        return CouplingDecision(CouplingMatrix.identity(n))
    if isinstance(strategy, FCC):
        if strategy.matrix.n != n:
            raise StrategyError(f"FCC matrix is {strategy.matrix.n}x{strategy.matrix.n}, system has {n} networks")
        return CouplingDecision(strategy.matrix)
    if isinstance(strategy, SBD):
        return CouplingDecision(_sbd_matrix(views))
    if isinstance(strategy, SWO):
        matrix = _swo_matrix(strategy, views)
        return CouplingDecision(matrix, swo_objective(matrix, views))
    raise StrategyError(f"unknown strategy {strategy!r}")
