"""Deterministic mean-field iteration of the cascade recursion.

Each network is reduced to aggregates: failed fraction f, expected
survivors N, the pool of extra load F emitted by the nodes that just
failed, and the cumulative per-survivor extra load Q. One step:

    f_t  = 1 - (1 - p) * P[S >= Q_{t-1}]
    N_t  = (1 - f_t) * N
    F_t  = N * (f_t - f_{t-1}) * (E[L] + Q_{t-1})
    dQ_t = (sum of inbound coupled pools) / N_t
    Q_t  = Q_{t-1} + dQ_t

Load aimed at a network with no survivors is not lost: it is held for one
step and then forwarded through that network's coupling row, renormalized
over the networks that still have survivors (mirroring the node-level
simulation). Iteration stops when every network's survivor count changes by
less than one node and no empty network holds as much as its mean load (any
load at all when that mean is 0), or when every network is empty
(breakdown). Both engines return a `RunResult`.

`mf_run` runs the whole recursion in one loop over per-run columns (node
count, 1 - p, E[L], the space law's P[S >= x]): the attack at t = 0, then
per step the failure phase, the strategy's decision, the coupling phase
with its monotonicity check, and the settle test. A fixed coupling (FCC) is
decided once, at t = 0, and reused on every later step. Load is routed by
`_routed_inbound`, which the complete-graph Monte-Carlo step shares.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

from .core import AttackSpec, CouplingMatrix, NetworkConfig
from .distributions import dist_mean, dist_sf_geq
from .strategies import FCC, CouplingDecision, CouplingStrategy, NetView, decide

DEFAULT_MAX_STEPS = 100_000


class MeanFieldError(ValueError):
    pass


@dataclass(frozen=True)
class MeanFieldState:
    t: int
    f: tuple[float, ...]
    n_alive: tuple[float, ...]
    total_extra: tuple[float, ...]
    q_step: tuple[float, ...]
    q_cum: tuple[float, ...]


class Outcome(enum.Enum):
    """How a run ended. BREAKDOWN means every network is empty; a run that
    empties only some networks settles as NO_CASCADE or SURVIVED."""
    NO_CASCADE = "no_cascade"
    SURVIVED = "survived"
    BREAKDOWN = "breakdown"
    NON_CONVERGED = "non_converged"


@dataclass(frozen=True)
class RunResult:
    """One run of either engine. `survivors` are the final survivor counts
    (expected counts in mean-field), `trajectory` one state per step (in
    Monte-Carlo only when recorded) and `decisions` the coupling used on
    each step, repeated for a fixed coupling."""
    final_fractions: tuple[float, ...]
    survivors: tuple[float, ...]
    steps_taken: int
    outcome: Outcome
    trajectory: list[MeanFieldState]
    decisions: list[CouplingDecision]

    @property
    def broken(self) -> bool:
        """Some network has no survivors left: the breakdown that a critical
        attack size measures. Survivor counts never rise, so it is sealed."""
        return any(s < 1.0 for s in self.survivors)

    @property
    def non_converged(self) -> bool:
        return self.outcome is Outcome.NON_CONVERGED

    def surviving_portion(self, node_counts: tuple[int, ...]) -> float:
        """Surviving nodes across the whole system over total initial nodes."""
        return sum(self.survivors) / sum(node_counts)


def _routed_inbound(pools: list[float], coupling: CouplingMatrix,
                    live: list[bool]) -> list[float]:
    """Inbound totals; a pool emitted by an empty network follows its row
    renormalized over networks that still have survivors."""
    n = len(pools)
    recv = [0.0] * n
    for pool, row, emitter_live in zip(pools, coupling.m, live):
        if pool <= 0.0:
            continue
        if not emitter_live:
            mass = sum(row[k] for k in range(n) if live[k])
            if mass > 0.0:
                row = [row[k] / mass if live[k] else 0.0 for k in range(n)]
            else:
                alive_total = sum(live)
                if alive_total == 0:
                    continue  # nothing left anywhere; caller declares breakdown
                row = [1.0 / alive_total if live[k] else 0.0 for k in range(n)]
        for k in range(n):
            recv[k] += pool * row[k]
    return recv


def mf_run(cfgs: list[NetworkConfig], attack: AttackSpec,
           strategy: CouplingStrategy, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
    """Iterate to a fixed point, asking the strategy for a coupling matrix
    each step (after failures are known, before the load lands). A fixed
    coupling (FCC) is decided at t = 0 and reused."""
    if max_steps < 1:
        raise MeanFieldError("max_steps must be >= 1")
    ps = attack.p
    if len(ps) != len(cfgs):
        raise MeanFieldError(f"attack has {len(ps)} entries for {len(cfgs)} networks")
    # Per-run columns: node count, 1 - p, E[L], the space law and its P[S >= x].
    counts = [c.node_count for c in cfgs]
    keeps = [1.0 - p for p in ps]
    loads = [dist_mean(c.load_dist) for c in cfgs]
    spaces = [c.space_dist for c in cfgs]
    sf_geqs = [s.sf_geq for s in spaces]
    inf = math.inf
    rn = range(len(cfgs))
    fixed = isinstance(strategy, FCC)
    decisions: list[CouplingDecision] = []
    steps: list[MeanFieldState] = []
    # t = 0: the attacked nodes fail and emit their loads.
    f = list(ps)
    n_alive = [keep * count for count, keep in zip(counts, keeps)]
    pools = [count * p * load for count, p, load in zip(counts, ps, loads)]
    q_cum = (0.0,) * len(cfgs)
    dec = None
    outcome, taken = Outcome.NON_CONVERGED, max_steps
    for t in range(max_steps + 1):
        if t:
            # Failures implied by the load placed through step t-1; the pool
            # is computed through f_t - f_{t-1}. A network that already had
            # no survivors adds the load it held, so that it is forwarded now.
            # Every law's P[S >= inf] is 0.
            f_prev, na_prev = f, n_alive
            f, n_alive, pools = [], [], []
            for i in rn:
                q = q_cum[i]
                count = counts[i]
                surv = keeps[i] * sf_geqs[i](q)
                fi = 1.0 - surv
                d = fi - f_prev[i]
                if d < 0.0:
                    d = 0.0
                pool = count * d * (loads[i] + (q if q < inf else 0.0))
                if na_prev[i] < 1.0:
                    pool += held[i]
                f.append(fi)
                n_alive.append(surv * count)
                pools.append(pool)
        if max(n_alive) < 1.0:
            steps.append(MeanFieldState(t, tuple(f), tuple(n_alive), tuple(pools),
                                        (0.0,) * len(cfgs), q_cum))
            outcome, taken = Outcome.BREAKDOWN, t
            break
        if dec is None or not fixed:
            dec = decide(strategy, [
                NetView(n_alive=na, pool=pool, q_cum=q, attack_frac=p, node_count=count,
                        load_mean=load, space_dist=space)
                for count, load, space, p, na, pool, q
                in zip(counts, loads, spaces, ps, n_alive, pools, q_cum)], t)
        decisions.append(dec)
        # Route the pools. An empty network keeps what lands on it (forwarded
        # next step); its per-survivor increment is the +inf sentinel.
        live = [na >= 1.0 for na in n_alive]
        recv = _routed_inbound(pools, dec.matrix, live)
        q_step, held, q_new = [], [], []
        settled = t > 0
        for i in rn:
            na = n_alive[i]
            q = q_cum[i]
            if live[i]:
                dq = recv[i] / na
                h = pools[i]
            else:
                dq = inf if recv[i] > 0.0 else 0.0
                h = recv[i]
            qn = q + dq
            q_step.append(dq)
            q_new.append(qn)
            held.append(h)
            if t:
                if f[i] < f_prev[i] - 1e-12:
                    raise MeanFieldError(f"failed fraction decreased for network {i} at t={t}")
                if qn < q - 1e-12:
                    raise MeanFieldError(f"cumulative load decreased for network {i} at t={t}")
                # Held load on an empty network moves next step; don't stop
                # while more than one node's worth is still in flight.
                if not abs(na - na_prev[i]) < 1.0 or (
                        na < 1.0 and not (h <= 0.0 or h < loads[i])):
                    settled = False
        q_cum, held = tuple(q_new), tuple(held)
        steps.append(MeanFieldState(t, tuple(f), tuple(n_alive), held, tuple(q_step), q_cum))
        if settled:
            no_new_failures = all(fi <= p + 1e-15 for fi, p in zip(f, ps))
            outcome, taken = (Outcome.NO_CASCADE if no_new_failures else Outcome.SURVIVED), t
            break
    final = steps[-1]
    return RunResult(tuple(1.0 - fi for fi in final.f), final.n_alive, taken, outcome,
                     steps, decisions)


def rkg_identical_step(q_prev: float, m: int, load_dist, space_dist,
                       q_prev2: float = 0.0) -> float:
    """One step of the random-key-graph recursion with identical groups.

    q_next = q_prev + E[(L + m*q_prev) * 1[m*q_prev2 < S <= m*q_prev]]
                      / (m * P[S >= m*q_prev])

    With the default q_prev2 = 0 the window starts at the bottom of the
    support; passing the previous value iterates the trajectory.
    """
    if m < 1:
        raise MeanFieldError("key-ring size m must be >= 1")
    surv = dist_sf_geq(space_dist, m * q_prev)
    window = dist_sf_geq(space_dist, m * q_prev2) - surv
    if window <= 0.0:
        return q_prev
    if surv <= 0.0:
        raise MeanFieldError("no surviving probability mass: breakdown")
    numer = (dist_mean(load_dist) + m * q_prev) * window
    return q_prev + numer / (m * surv)


def rkg_run(p: float, m: int, load_dist, space_dist,
            max_steps: int = DEFAULT_MAX_STEPS,
            tol: float = 1e-12) -> tuple[list[float], float]:
    """Iterate the identical-group recursion from the initial attack.

    Returns the q trajectory and the surviving portion (1-p) * P[S >= m*q*]
    at the fixed point.
    """
    if not (0.0 <= p < 1.0):
        raise MeanFieldError("attack fraction must be in [0, 1)")
    q = dist_mean(load_dist) / m * p / (1.0 - p)
    qs = [q]
    q_prev2 = 0.0
    for _ in range(max_steps):
        try:
            q_next = rkg_identical_step(q, m, load_dist, space_dist, q_prev2)
        except MeanFieldError:
            return qs, 0.0
        q_prev2, q = q, q_next
        qs.append(q)
        if q - q_prev2 <= tol * max(q, 1.0):
            break
    return qs, (1.0 - p) * dist_sf_geq(space_dist, m * q)


def trajectory_to_csv(traj: RunResult, path: str) -> None:
    """Columns: t, network, f, n_alive, F, Q_step, Q_cum."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "network", "f", "n_alive", "F", "Q_step", "Q_cum"])
        for st in traj.trajectory:
            for i in range(len(st.f)):
                w.writerow([st.t, i, repr(st.f[i]), repr(st.n_alive[i]),
                            repr(st.total_extra[i]), repr(st.q_step[i]),
                            repr(st.q_cum[i])])
