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
over r_A; three or more require uniform free space. A decision is float
arithmetic, numpy only on the zoom's grids: about 37 µs by water-filling on
two networks, 46 µs on three, 82 µs by zoom (2-vCPU Xeon, `swo-decide`).

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

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial, reduce
from operator import add

import numpy as np

from .core import CouplingMatrix, validate_coupling
from .distributions import (DistributionSpec, ShiftedExponential, Uniform,
                            dist_sf_geq, dist_sf_geq_arr)

# Zoom over r_A for two networks with non-uniform free space: each pass
# evaluates a fixed grid and narrows to the two cells around its minimum.
ZOOM_PASSES = 4
ZOOM_POINTS = 41
_ZOOM_STEPS = np.arange(ZOOM_POINTS, dtype=float)

# Left-to-right float sum, the order decisions are pinned to (the built-in
# sum() compensates from Python 3.12 on).
_sum = partial(reduce, add)


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


def _sbd_matrix(views: list[NetView]) -> CouplingMatrix:
    weights = [max(v.n_alive, 0.0) for v in views]
    total = _sum(weights)
    if total <= 0:
        raise StrategyError("SBD undefined with no survivors")
    return CouplingMatrix((tuple(float(w / total) for w in weights),) * len(views))


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
    if view.n_alive <= 0:
        return 0.0 * r
    u = r / view.n_alive
    sd = view.space_dist
    if isinstance(sd, Uniform):
        if view.q_cum >= sd.hi:
            return 0.0 * r
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
    return float(_sum([_model_pool(v, _sum([row[k] * u.pool for row, u in zip(matrix.m, views)]))
                       for k, v in enumerate(views)]))


# ---------------------------------------------------------------------------
# SWO solvers, on lists of floats, in shares x = r / P of the total pool
# ---------------------------------------------------------------------------

def _fill_in_order(x: list, room: list, spare: float) -> None:
    """Add `spare` to x in index order, at most room[k] to x[k]."""
    filled = 0.0
    for k, rk in enumerate(room):
        filled += rk
        x[k] += min(max(spare - (filled - rk), 0.0), rk)


def _water_fill(w: list, g: list, lo: list, hi: list) -> list[float]:
    """Minimizer of sum(w*x**2 + g*x) over {lo <= x <= hi : sum(x) = 1}, w >= 0.

    KKT: x_k = clip((lam - g_k) / (2 w_k), lo_k, hi_k), or for w_k = 0, lo_k
    below lam = g_k and hi_k above it. sum(x) is piecewise linear in lam
    between the breakpoints g + 2*w*lo and g + 2*w*hi, so lam is found
    exactly from the sorted breakpoints. Ties (w_k = 0, g_k = lam) take the
    leftover in index order, each up to hi_k. With w = 1, g = -2y this
    projects y onto the set.
    """
    if _sum(lo) > 1.0 + 1e-12 or _sum(hi) < 1.0 - 1e-12:
        raise StrategyError(f"infeasible bounds: lower bounds sum to {_sum(lo):.6g}, "
                            f"upper bounds to {_sum(hi):.6g}; a row must sum to 1")
    nets = list(zip(w, g, lo, hi))

    # min and max take the bound first, so that on a tie (+0.0 against -0.0)
    # the bound wins, as with np.minimum and np.maximum.
    def at(lam, ties_high: bool) -> list[float]:
        return [min(hk, max(lk, (lam - gk) * (0.5 / wk))) if wk > 0
                else hk if (gk <= lam if ties_high else gk < lam) else lk
                for wk, gk, lk, hk in nets]

    bps = sorted([gk + 2.0 * wk * lk for wk, gk, lk, _ in nets]
                 + [gk + 2.0 * wk * hk for wk, gk, _, hk in nets])
    # First breakpoint whose sum, ties at hi, reaches 1 (sums are non-decreasing).
    j = min(bisect_left(bps, 1.0, key=lambda lam: _sum(at(lam, True))), len(bps) - 1)
    x = at(bps[j], False)
    if _sum(x) <= 1.0 or j == 0:  # lam = bps[j]
        ties = [hk - lk if wk <= 0 and gk == bps[j] else 0.0 for wk, gk, lk, hk in nets]
        _fill_in_order(x, ties, 1.0 - _sum(x))
        return x
    # lam lies inside (bps[j-1], bps[j]), where every entry is affine in lam:
    # interpolate between the two ends to where the row sums to 1 (no lam - g
    # cancellation, so no entry is lost to rounding).
    below = at(bps[j - 1], True)
    theta = (1.0 - _sum(below)) / (_sum(x) - _sum(below))
    return [min(xk, bk + theta * (xk - bk)) for bk, xk in zip(below, x)]


def _share_bounds(strategy: SWO, shares: list[float], dead: list[bool]):
    """Per-network bounds on the inbound share r_k / P (module docstring)."""
    n = len(shares)
    if n == 2:
        (lo_a, hi_a), (lo_b, hi_b) = strategy.bound(0), strategy.bound(1)
        s_a, s_b = shares
        lo = [lo_a * s_a + (1.0 - hi_b) * s_b, lo_b * s_b + (1.0 - hi_a) * s_a]
        hi = [hi_a * s_a + (1.0 - lo_b) * s_b, hi_b * s_b + (1.0 - lo_a) * s_a]
    elif len(strategy.bounds) > 1:
        raise StrategyError(f"SWO on {n} networks takes a single bounds pair")
    else:
        lo, hi = ([b] * n for b in strategy.bounds[0])
    room = [hk - lk if d else 0.0 for lk, hk, d in zip(lo, hi, dead)]
    hi = [lk if d else hk for lk, hk, d in zip(lo, hi, dead)]
    spill = 1.0 - _sum(hi)  # what the live networks cannot hold
    if spill > 0.0:
        _fill_in_order(hi, room, spill)
    return lo, hi


def _uniform_shares(views: list[NetView], total: float, lo, hi) -> list[float]:
    """Exact minimizer for uniform free space: sum(w_k r_k^2 + g_k r_k) with
    w_k = c_k / a_k^2, g_k = c_k (E[L_k] + q_k) / a_k, c_k = (1 - p_k) N_k / d_k
    (zero for a dead network or one at or past the top of its support).
    Zero-cost networks tie: leftover load fills them in index order. With
    P = 0 or every c_k = 0 the SBD row, projected onto the bounds, is used."""
    n = len(views)
    alive = [max(v.n_alive, 0.0) for v in views]
    c, ell = [0.0] * n, [0.0] * n
    for k, v in enumerate(views):
        if v.n_alive > 0 and v.q_cum < v.space_dist.hi:  # else zero cost (q_cum may be inf)
            c[k] = (1.0 - v.attack_frac) * v.node_count / (v.space_dist.hi - v.space_dist.lo)
            ell[k] = v.load_mean + v.q_cum
    inv_alive = [1.0 / max(1e-300, a) if a > 0 else 0.0 for a in alive]
    if total > 0.0 and any(c):
        # Shares x = r / P scale the weights to (w * P, g).
        return _water_fill([ck * (ik * ik) * total for ck, ik in zip(c, inv_alive)],
                           [ck * ek * ik for ck, ek, ik in zip(c, ell, inv_alive)], lo, hi)
    alive_sum = _sum(alive)
    return _water_fill([1.0] * n, [-2.0 * a / alive_sum for a in alive], lo, hi)


def _zoom_shares(views: list[NetView], total: float, lo, hi) -> list[float]:
    """Two networks, any free space: ZOOM_PASSES grids of ZOOM_POINTS shares
    of network A, each narrowed to the cells around the previous minimum
    (the first minimum on ties). A grid is np.linspace(a, b, ZOOM_POINTS)
    by linspace's own arithmetic, without its per-call cost."""
    va, vb = views
    a, b = lo[0], hi[0]
    for _ in range(ZOOM_PASSES):
        x = _ZOOM_STEPS * ((b - a) / (ZOOM_POINTS - 1)) + a
        x[-1] = b
        i = int(np.argmin(_model_pool(va, x * total) + _model_pool(vb, (1.0 - x) * total)))
        a, b = x[max(i - 1, 0)], x[min(i + 1, ZOOM_POINTS - 1)]
    return [float(x[i]), float(1.0 - x[i])]


def _swo_matrix(strategy: SWO, views: list[NetView]) -> CouplingMatrix:
    n = len(views)
    if n < 2:
        raise StrategyError("SWO needs at least two networks")
    pools = [v.pool for v in views]
    total = _sum(pools)
    # With P = 0 a two-network matrix is (lo_a, lo_b) whatever the shares.
    shares = [p / total for p in pools] if total > 0.0 else [1.0 / n] * n
    lo, hi = _share_bounds(strategy, shares, [v.n_alive <= 0 for v in views])
    uniform = all(isinstance(v.space_dist, Uniform) for v in views)
    if n > 2 and not uniform:
        raise StrategyError(f"SWO on {n} networks requires uniform free-space distributions")
    x = (_uniform_shares if uniform else _zoom_shares)(views, total, lo, hi)
    if n == 2:  # the smallest alpha yielding inbound r_A, then beta from r_A
        (lo_a, hi_a), (lo_b, hi_b) = strategy.bound(0), strategy.bound(1)
        r_a, p_a, p_b = float(x[0] * total), float(pools[0]), float(pools[1])
        alpha = min(max((r_a - (1.0 - lo_b) * p_b) / p_a, lo_a), hi_a) if p_a > 0 else lo_a
        beta = min(max(1.0 - (r_a - alpha * p_a) / p_b, lo_b), hi_b) if p_b > 0 else lo_b
        return CouplingMatrix.two_net(alpha, beta)
    cm = CouplingMatrix((tuple(map(float, x)),) * n)
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
