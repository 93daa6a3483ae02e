"""Coupling strategies: fixed coefficients, size-based dynamic, and step-wise
optimization.

The step-wise optimizer picks the coupling matrix that minimizes the
predicted total extra load emitted at the next step. Writing u_k for the
per-survivor load increment network k receives under a candidate matrix,
the predicted next-step pool of network k is

    (nodes failing next step in k) * (mean load they carry)
      = (1 - p_k) * N_k * P[q_k <= S_k < q_k + u_k] * (E[L_k] + q_k + u_k)

where q_k is the cumulative per-node extra load before the current
redistribution. With uniform free space and the failure window inside the
support, the probability is u_k / d_k and the objective is an exact convex
quadratic in the coupling coefficients, solved in closed form over the box
for two networks and by exact water-filling over the inbound loads for more
(Boyd & Vandenberghe, Convex Optimization, 5.5.3). Otherwise (two networks)
a grid search over the model objective is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CouplingMatrix, validate_coupling
from .distributions import (DistributionSpec, ShiftedExponential, Uniform,
                            dist_sf_geq, dist_sf_geq_arr)


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
    grid_resolution: float = 0.05

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
    objective_value: float | None = None
    at_boundary: tuple[bool, ...] | None = None


@dataclass(frozen=True)
class SwoCoefficients:
    """Quadratic objective K_a2*a^2 + K_b2*b^2 + K_ab*a*b + K_a*a + K_b*b + const
    for the two-network uniform case, a = in-net ratio of A, b = of B."""
    a1: float
    b1: float
    a2: float
    b2: float
    n_eff_a: float  # (1 - p_A) * N_A / d_A, window density times count
    n_eff_b: float
    k_alpha2: float
    k_beta2: float
    k_alphabeta: float
    k_alpha: float
    k_beta: float
    const: float

    def hessian(self) -> np.ndarray:
        return np.array([
            [2.0 * self.k_alpha2, self.k_alphabeta],
            [self.k_alphabeta, 2.0 * self.k_beta2],
        ])

    def is_psd(self, tol: float = 1e-9) -> bool:
        h = self.hessian()
        scale = max(abs(h).max(), 1.0)
        return h.trace() >= -tol * scale and np.linalg.det(h) >= -tol * scale * scale

    def value(self, alpha, beta):
        return (self.k_alpha2 * alpha * alpha + self.k_beta2 * beta * beta
                + self.k_alphabeta * alpha * beta
                + self.k_alpha * alpha + self.k_beta * beta + self.const)


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


def _increments(alpha, beta, views: list[NetView]):
    """Per-survivor load increments (u_A, u_B) under candidate (alpha, beta)."""
    va, vb = views
    in_a = alpha * va.pool + (1.0 - beta) * vb.pool
    in_b = beta * vb.pool + (1.0 - alpha) * va.pool
    u_a = in_a / va.n_alive if va.n_alive > 0 else np.zeros_like(in_a * 1.0)
    u_b = in_b / vb.n_alive if vb.n_alive > 0 else np.zeros_like(in_b * 1.0)
    return u_a, u_b


def _next_pool(view: NetView, u):
    """Predicted extra load the network emits next step, given increment u."""
    if view.n_alive <= 0:
        return np.zeros_like(np.asarray(u, dtype=float))
    sf_now = dist_sf_geq(view.space_dist, view.q_cum)
    q_new = view.q_cum + np.asarray(u, dtype=float)
    sf_new = dist_sf_geq_arr(view.space_dist, q_new)
    dead = (1.0 - view.attack_frac) * view.node_count * (sf_now - sf_new)
    return dead * (view.load_mean + q_new)


def swo_objective_general(alpha, beta, views: list[NetView]):
    """Predicted total next-step extra load under (alpha, beta). Accepts arrays."""
    u_a, u_b = _increments(alpha, beta, views)
    out = _next_pool(views[0], u_a) + _next_pool(views[1], u_b)
    return float(out) if np.ndim(out) == 0 else out


def swo_build_uniform(views: list[NetView]) -> SwoCoefficients:
    """Exact quadratic form of the objective for uniform free space.

    Valid when each live network's failure window [q_cum, q_cum + u] lies
    inside the uniform support; a network already past the top of its
    support (or dead) contributes nothing and its weight is zeroed.
    """
    va, vb = views
    for v in (va, vb):
        if not isinstance(v.space_dist, Uniform):
            raise StrategyError("swo_build_uniform requires uniform free-space distributions")

    def pieces(v: NetView):
        d = v.space_dist.hi - v.space_dist.lo
        live = v.n_alive > 0 and v.q_cum < v.space_dist.hi
        c = (1.0 - v.attack_frac) * v.node_count / d if live else 0.0
        ell = v.load_mean + v.q_cum
        return c, ell, d

    c_a, ell_a, d_a = pieces(va)
    c_b, ell_b, d_b = pieces(vb)
    # u_A = a1*alpha + b1*(1 - beta), u_B = a2*beta + b2*(1 - alpha)
    a1 = va.pool / va.n_alive if va.n_alive > 0 else 0.0
    b1 = vb.pool / va.n_alive if va.n_alive > 0 else 0.0
    a2 = vb.pool / vb.n_alive if vb.n_alive > 0 else 0.0
    b2 = va.pool / vb.n_alive if vb.n_alive > 0 else 0.0

    k_alpha2 = c_a * a1 * a1 + c_b * b2 * b2
    k_beta2 = c_a * b1 * b1 + c_b * a2 * a2
    k_alphabeta = -2.0 * (c_a * a1 * b1 + c_b * a2 * b2)
    k_alpha = c_a * a1 * (2.0 * b1 + ell_a) - c_b * b2 * (2.0 * b2 + ell_b)
    k_beta = c_b * a2 * (2.0 * b2 + ell_b) - c_a * b1 * (2.0 * b1 + ell_a)
    const = c_a * b1 * (b1 + ell_a) + c_b * b2 * (b2 + ell_b)
    return SwoCoefficients(
        a1=a1 / d_a, b1=b1 / d_a, a2=a2 / d_b, b2=b2 / d_b,
        n_eff_a=c_a * d_a, n_eff_b=c_b * d_b,
        k_alpha2=k_alpha2, k_beta2=k_beta2, k_alphabeta=k_alphabeta,
        k_alpha=k_alpha, k_beta=k_beta, const=const,
    )


def _min_quad_1d(k2: float, k1: float, lo: float, hi: float) -> float:
    """Argmin of k2*x^2 + k1*x over [lo, hi]; ties resolved to the smaller x."""
    if k2 > 0.0:
        x = -k1 / (2.0 * k2)
        return min(max(x, lo), hi)
    if k2 == 0.0:
        if k1 > 0.0:
            return lo
        if k1 < 0.0:
            return hi
        return lo
    # Concave slice: an endpoint wins.
    v_lo = k2 * lo * lo + k1 * lo
    v_hi = k2 * hi * hi + k1 * hi
    return lo if v_lo <= v_hi else hi


def swo_solve_box(coeffs: SwoCoefficients,
                  bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0)),
                  ) -> tuple[float, float, float]:
    """Box-constrained minimum of the quadratic: interior stationary point if
    feasible, else the best of the four (clamped) edge minima and vertices."""
    (lo_a, hi_a), (lo_b, hi_b) = bounds
    candidates: list[tuple[float, float]] = []

    h = np.array([[2.0 * coeffs.k_alpha2, coeffs.k_alphabeta],
                  [coeffs.k_alphabeta, 2.0 * coeffs.k_beta2]])
    g = np.array([coeffs.k_alpha, coeffs.k_beta])
    scale = max(abs(h).max(), 1.0)
    if abs(np.linalg.det(h)) > 1e-14 * scale * scale:
        st = np.linalg.solve(h, -g)
        if lo_a <= st[0] <= hi_a and lo_b <= st[1] <= hi_b:
            candidates.append((float(st[0]), float(st[1])))

    # Edges: fix one coefficient, 1-D quadratic in the other.
    for a in (lo_a, hi_a):
        b = _min_quad_1d(coeffs.k_beta2, coeffs.k_alphabeta * a + coeffs.k_beta, lo_b, hi_b)
        candidates.append((a, b))
    for b in (lo_b, hi_b):
        a = _min_quad_1d(coeffs.k_alpha2, coeffs.k_alphabeta * b + coeffs.k_alpha, lo_a, hi_a)
        candidates.append((a, b))
    candidates.extend([(lo_a, lo_b), (lo_a, hi_b), (hi_a, lo_b), (hi_a, hi_b)])

    best = min(candidates, key=lambda ab: (coeffs.value(ab[0], ab[1]), ab[0], ab[1]))
    return best[0], best[1], float(coeffs.value(best[0], best[1]))


def _grid_axis(lo: float, hi: float, resolution: float) -> np.ndarray:
    pts = np.arange(0.0, 1.0 + resolution / 2.0, resolution)
    pts = pts[(pts >= lo - 1e-12) & (pts <= hi + 1e-12)]
    if pts.size == 0:
        pts = np.array([lo])
    return np.clip(pts, lo, hi)


def swo_solve_grid(views: list[NetView], resolution: float,
                   bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0)),
                   objective=None) -> tuple[float, float, float]:
    """Exhaustive search of the exact objective on the resolution grid
    intersected with the bounds. Ties go to the smallest (alpha, beta)."""
    if resolution <= 0:
        raise StrategyError("grid resolution must be positive")
    obj = objective if objective is not None else swo_objective_general
    alphas = _grid_axis(*bounds[0], resolution)
    betas = _grid_axis(*bounds[1], resolution)
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    vals = obj(aa, bb, views)
    vals = np.asarray(vals, dtype=float)
    best = np.min(vals)
    ties = np.argwhere(vals <= best)
    i, j = min((int(t[0]), int(t[1])) for t in ties)
    return float(alphas[i]), float(betas[j]), float(vals[i, j])


def _solve_grid_refined(views: list[NetView], bounds, coarse: float = 0.05,
                        target: float = 1e-3,
                        objective=None) -> tuple[float, float, float]:
    """Coarse grid pass followed by local zooms down to the target resolution.

    Equivalent to a full fine grid for the convex objectives exercised here,
    at a small fraction of the evaluations.
    """
    obj = objective if objective is not None else swo_objective_general
    (lo_a, hi_a), (lo_b, hi_b) = bounds
    a, b, val = swo_solve_grid(views, coarse, bounds, objective=obj)
    res = coarse
    while res > target:
        res /= 10.0
        win_a = (max(lo_a, a - 10 * res), min(hi_a, a + 10 * res))
        win_b = (max(lo_b, b - 10 * res), min(hi_b, b + 10 * res))
        alphas = np.arange(win_a[0], win_a[1] + res / 2.0, res)
        betas = np.arange(win_b[0], win_b[1] + res / 2.0, res)
        aa, bb = np.meshgrid(alphas, betas, indexing="ij")
        vals = np.asarray(obj(aa, bb, views), dtype=float)
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        a, b, val = float(alphas[idx[0]]), float(betas[idx[1]]), float(vals[idx])
    return a, b, val


def swo_model_objective(alpha, beta, views: list[NetView]):
    """Decision-time estimate of next-step extra load.

    Uniform free space uses the window density 1/d unconditionally (the
    closed-form quadratic); shifted-exponential free space relies on
    memorylessness: given survival so far, an increment u fails a survivor
    with probability 1 - exp(-rate*u). Both match the exact objective once
    the failure window sits inside the support; below it they deliberately
    keep charging, so the optimizer never sees a spurious free dump.
    """
    u_a, u_b = _increments(alpha, beta, views)
    total = 0.0
    for v, u in ((views[0], u_a), (views[1], u_b)):
        if v.n_alive <= 0:
            continue
        sd = v.space_dist
        if isinstance(sd, Uniform):
            if v.q_cum >= sd.hi:
                continue
            dead = (1.0 - v.attack_frac) * v.node_count * u / (sd.hi - sd.lo)
        elif isinstance(sd, ShiftedExponential):
            dead = v.n_alive * (1.0 - np.exp(-sd.rate * np.asarray(u, dtype=float)))
        else:
            sf_now = dist_sf_geq(sd, v.q_cum)
            sf_new = dist_sf_geq_arr(sd, v.q_cum + np.asarray(u, dtype=float))
            dead = (1.0 - v.attack_frac) * v.node_count * (sf_now - sf_new)
        total = total + dead * (v.load_mean + v.q_cum + u)
    return float(total) if np.ndim(total) == 0 else total


def _swo_two_net(strategy: SWO, views: list[NetView]) -> CouplingDecision:
    bounds = (strategy.bound(0), strategy.bound(1))
    if all(isinstance(v.space_dist, Uniform) for v in views):
        coeffs = swo_build_uniform(views)
        alpha, beta, obj = swo_solve_box(coeffs, bounds)
    else:
        alpha, beta, obj = _solve_grid_refined(
            views, bounds, coarse=strategy.grid_resolution,
            objective=swo_model_objective)
    at_bnd = (alpha in bounds[0], beta in bounds[1])
    return CouplingDecision(CouplingMatrix.two_net(alpha, beta), obj, at_bnd)


# ---------------------------------------------------------------------------
# n-network water-filling
# ---------------------------------------------------------------------------

def _water_fill(w: np.ndarray, g: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Minimizer of sum(w*x**2 + g*x) over {x in [lo, hi]^n : sum(x) = 1}, w >= 0.

    KKT: x_k = clip((lam - g_k) / (2 w_k), lo, hi), or for w_k = 0, lo below
    lam = g_k and hi above it. sum(x) is piecewise linear in lam between the
    breakpoints g + 2*w*lo and g + 2*w*hi, so lam is found exactly from the
    sorted breakpoints. Ties (w_k = 0, g_k = lam) take the leftover in index
    order, each up to hi. With w = 1, g = -2y this projects y onto the set.
    """
    n = w.size
    if n * lo > 1.0 + 1e-12 or n * hi < 1.0 - 1e-12:
        raise StrategyError(f"infeasible bounds: row of {n} entries in [{lo}, {hi}] cannot sum to 1")
    pos = w > 0
    inv = np.where(pos, 0.5 / np.where(pos, w, 1.0), 0.0)

    def at(lam, ties_high: bool) -> np.ndarray:
        step = (g <= lam) if ties_high else (g < lam)
        return np.where(pos, np.clip((lam - g) * inv, lo, hi), np.where(step, hi, lo))

    bps = np.unique(np.concatenate([g + 2.0 * w * lo, g + 2.0 * w * hi]))
    # First breakpoint whose sum, ties at hi, reaches 1 (sums are non-decreasing).
    j = min(int(np.searchsorted(at(bps[:, None], True).sum(axis=1), 1.0)), bps.size - 1)
    x = at(bps[j], False)
    if x.sum() <= 1.0 or j == 0:  # lam = bps[j]
        ties = ~pos & (g == bps[j])
        x[ties] += np.clip(1.0 - x.sum() - (hi - lo) * np.arange(ties.sum()), 0.0, hi - lo)
        return x
    # lam lies inside (bps[j-1], bps[j]), where the set of free entries is fixed.
    x = at(0.5 * (bps[j - 1] + bps[j]), False)
    free = pos & (x > lo) & (x < hi)
    rest = 1.0 - x[~free].sum()
    lam = (rest + (g * inv)[free].sum()) / inv[free].sum()
    t = (lam - g[free]) * inv[free]
    x[free] = t * (rest / t.sum())  # lam - g may cancel; keep the sum exact
    return x


def swo_solve_multinet(views: list[NetView],
                       bounds: tuple[float, float] = (0.0, 1.0)) -> CouplingMatrix:
    """Row-stochastic coupling matrix minimizing predicted next-step extra load
    for n networks with uniform free space, by exact water-filling.

    The objective is sum(w_k r_k^2 + g_k r_k) in the inbound loads r_k, with
    w_k = c_k / a_k^2, g_k = c_k (E[L_k] + q_k) / a_k, a_k the survivors and
    c_k = (1 - p_k) N_k / d_k, zero for a dead network or one with q_k at or
    past the top of its support. Feasible r form {lo*P <= r_k <= hi*P,
    sum(r) = P}, P the total pool; the optimum is returned as identical rows
    r_k / P. Zero-cost networks tie: leftover load fills them in index order,
    each up to hi*P. With P = 0 or every c_k = 0 the SBD row, projected onto
    the bounds, is returned.
    """
    n = len(views)
    if n < 2:
        raise StrategyError("multinet solver needs at least two networks")
    lo, hi = bounds
    for v in views:
        if not isinstance(v.space_dist, Uniform):
            raise StrategyError("multinet solver requires uniform free-space distributions")

    pools = np.array([v.pool for v in views])
    alive = np.array([max(v.n_alive, 0.0) for v in views])
    c, ell = np.zeros(n), np.zeros(n)
    for k, v in enumerate(views):
        if v.n_alive > 0 and v.q_cum < v.space_dist.hi:  # else zero cost (q_cum may be inf)
            c[k] = (1.0 - v.attack_frac) * v.node_count / (v.space_dist.hi - v.space_dist.lo)
            ell[k] = v.load_mean + v.q_cum
    inv_alive = np.where(alive > 0, 1.0 / np.maximum(alive, 1e-300), 0.0)
    total = pools.sum()
    if total > 0.0 and c.any():
        # Rows hold x = r / P, which scales the weights to (w * P, g).
        row = _water_fill(c * inv_alive ** 2 * total, c * ell * inv_alive, lo, hi)
    else:
        sbd = alive / alive.sum() if alive.sum() > 0 else np.full(n, 1.0 / n)
        row = _water_fill(np.ones(n), -2.0 * sbd, lo, hi)
    cm = CouplingMatrix.from_array(np.tile(row, (n, 1)))
    validate_coupling(cm)
    return cm


def multinet_objective(matrix: CouplingMatrix, views: list[NetView]) -> float:
    """Predicted next-step total extra load for an n-network coupling matrix."""
    m = matrix.as_array()
    pools = np.array([v.pool for v in views])
    total = 0.0
    for k, v in enumerate(views):
        inbound = float(m[:, k] @ pools)
        u = inbound / v.n_alive if v.n_alive > 0 else 0.0
        total += float(_next_pool(v, u))
    return total


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
        if n == 2:
            return _swo_two_net(strategy, views)
        if len(strategy.bounds) > 1:
            raise StrategyError(f"SWO on {n} networks takes a single bounds pair")
        matrix = swo_solve_multinet(views, strategy.bounds[0])
        return CouplingDecision(matrix, multinet_objective(matrix, views))
    raise StrategyError(f"unknown strategy {strategy!r}")
