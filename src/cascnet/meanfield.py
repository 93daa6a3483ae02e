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
less than one node and no held load remains in flight, or when every
network is empty (breakdown).

`mf_init`, `mf_step` and `mf_run` share one step: a failure phase over
per-run constants (node count, 1 - p, E[L], space law), then a coupling
phase that routes the pools. A fixed coupling (FCC) is decided once, at
t = 0, and reused on every later step.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

from .core import AttackSpec, CouplingMatrix, NetworkConfig, validate_coupling
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
    NO_CASCADE = "no_cascade"
    SURVIVED = "survived"
    BREAKDOWN = "breakdown"
    NON_CONVERGED = "non_converged"


class InitiationCase(enum.Enum):
    CASE1 = 1  # no network triggered
    CASE2 = 2  # exactly one side triggered
    CASE3 = 3  # all networks triggered


@dataclass(frozen=True)
class MeanFieldTrajectory:
    steps: list[MeanFieldState]
    outcome: Outcome
    final_fractions: tuple[float, ...]
    steps_taken: int

    @property
    def final(self) -> MeanFieldState:
        return self.steps[-1]

    def surviving_portion(self, node_counts: tuple[int, ...]) -> float:
        """Surviving nodes across the whole system over total initial nodes."""
        total = sum(node_counts)
        return sum(n for n in self.final.n_alive) / total


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


def _constants(cfgs: list[NetworkConfig], attack: AttackSpec) -> list[tuple]:
    """Per network, once per run: (node count, 1 - p, E[L], space law)."""
    if len(attack.p) != len(cfgs):
        raise MeanFieldError(f"attack has {len(attack.p)} entries for {len(cfgs)} networks")
    return [(c.node_count, 1.0 - p, dist_mean(c.load_dist), c.space_dist)
            for c, p in zip(cfgs, attack.p)]


def _attack_phase(nets, attack: AttackSpec) -> tuple[list[float], list[float], list[float]]:
    """(f_0, N_0, F_0): the attacked nodes fail and emit their loads."""
    return (list(attack.p), [keep * count for count, keep, _, _ in nets],
            [count * p * load for (count, _, load, _), p in zip(nets, attack.p)])


def _failure_phase(nets, prev: MeanFieldState) -> tuple[list[float], list[float], list[float]]:
    """(f_t, N_t, F_t) implied by the load placed through step t-1.

    For a network that already had no survivors, prev.total_extra holds load
    that landed on it last step and is still in flight; it joins this step's
    pool so the coupling phase can forward it. Every law's P[S >= inf] is 0.
    """
    f, n_alive, pools = [], [], []
    for (count, keep, load, space), f_prev, alive, held, q in zip(
            nets, prev.f, prev.n_alive, prev.total_extra, prev.q_cum):
        surv = keep * space.sf_geq(q)
        fi = 1.0 - surv
        pool = count * max(fi - f_prev, 0.0) * (load + (q if q < math.inf else 0.0))
        if alive < 1.0:
            pool += held
        f.append(fi)
        n_alive.append(surv * count)
        pools.append(pool)
    return f, n_alive, pools


def _coupling_phase(q_prev, t: int, f, n_alive, pools,
                    coupling: CouplingMatrix) -> MeanFieldState:
    """Route this step's pools on top of the cumulative loads q_prev. An
    empty network keeps what lands on it in its pool slot (forwarded next
    step); its per-survivor increment is the +inf sentinel."""
    live = [na >= 1.0 for na in n_alive]
    recv = _routed_inbound(pools, coupling, live)
    q_step, held = [], []
    for r, na, pool, is_live in zip(recv, n_alive, pools, live):
        if is_live:
            q_step.append(r / na)
            held.append(pool)
        else:
            q_step.append(math.inf if r > 0.0 else 0.0)
            held.append(r)
    return MeanFieldState(t, tuple(f), tuple(n_alive), tuple(held), tuple(q_step),
                          tuple([q + dq for q, dq in zip(q_prev, q_step)]))


def mf_init(cfgs: list[NetworkConfig], attack: AttackSpec,
            coupling: CouplingMatrix) -> MeanFieldState:
    """State right after the initial attack and its first redistribution:
    `mf_run`'s t = 0 state under `coupling`."""
    nets = _constants(cfgs, attack)
    validate_coupling(coupling)
    if coupling.n != len(nets):
        raise MeanFieldError("coupling matrix size does not match network count")
    return _coupling_phase((0.0,) * len(nets), 0, *_attack_phase(nets, attack), coupling)


def mf_classify_initiation(state0: MeanFieldState,
                           space_min: tuple[float, ...]) -> tuple[InitiationCase, tuple[int, ...]]:
    """Which networks the initial redistribution triggers.

    Returns the case plus the indices of the triggered networks (empty for
    case 1, all for case 3).
    """
    if state0.t != 0:
        raise MeanFieldError("initiation classification needs a t=0 state")
    triggered = tuple(i for i, (q, s) in enumerate(zip(state0.q_cum, space_min)) if q >= s)
    if not triggered:
        return InitiationCase.CASE1, triggered
    if len(triggered) == len(state0.q_cum):
        return InitiationCase.CASE3, triggered
    return InitiationCase.CASE2, triggered


def mf_step(prev: MeanFieldState, coupling: CouplingMatrix,
            cfgs: list[NetworkConfig], attack: AttackSpec) -> MeanFieldState:
    """One recursion step. The failure window [Q_{t-2}, Q_{t-1}] is implicit
    in prev.f: the pool is computed through the difference f_t - f_{t-1}."""
    return _coupling_phase(prev.q_cum, prev.t + 1,
                           *_failure_phase(_constants(cfgs, attack), prev), coupling)


def _views(nets, attack: AttackSpec, f, n_alive, pools, q_cum, q_step) -> list[NetView]:
    return [
        NetView(n_alive=na, pool=pool, q_cum=q, q_step=dq, frac_failed=fi,
                attack_frac=p, node_count=count, load_mean=load, space_dist=space)
        for (count, _, load, space), p, fi, na, pool, q, dq
        in zip(nets, attack.p, f, n_alive, pools, q_cum, q_step)
    ]


def _check_monotone(prev: MeanFieldState, cur: MeanFieldState) -> None:
    for i in range(len(cur.f)):
        if cur.f[i] < prev.f[i] - 1e-12:
            raise MeanFieldError(f"failed fraction decreased for network {i} at t={cur.t}")
        if cur.q_cum[i] < prev.q_cum[i] - 1e-12:
            raise MeanFieldError(f"cumulative load decreased for network {i} at t={cur.t}")


def mf_run(cfgs: list[NetworkConfig], attack: AttackSpec,
           strategy: CouplingStrategy, max_steps: int = DEFAULT_MAX_STEPS,
           record_decisions: bool = False,
           ) -> MeanFieldTrajectory | tuple[MeanFieldTrajectory, list[CouplingDecision]]:
    """Iterate to a fixed point, asking the strategy for a coupling matrix
    each step (after failures are known, before the load lands). A fixed
    coupling (FCC) is decided at t = 0 and reused."""
    if max_steps < 1:
        raise MeanFieldError("max_steps must be >= 1")
    nets = _constants(cfgs, attack)
    zeros = (0.0,) * len(nets)
    fixed = isinstance(strategy, FCC)
    decisions: list[CouplingDecision] = []
    steps: list[MeanFieldState] = []

    def finish(outcome, taken):
        fractions = tuple(1.0 - fi for fi in steps[-1].f)
        traj = MeanFieldTrajectory(steps, outcome, fractions, taken)
        return (traj, decisions) if record_decisions else traj

    f, n_alive, pools = _attack_phase(nets, attack)
    q_cum = q_step = zeros
    dec = None
    for t in range(max_steps + 1):
        if t:
            f, n_alive, pools = _failure_phase(nets, state)
        if max(n_alive) < 1.0:
            steps.append(MeanFieldState(t, tuple(f), tuple(n_alive), tuple(pools),
                                        zeros, q_cum))
            return finish(Outcome.BREAKDOWN, t)
        if dec is None or not fixed:
            dec = decide(strategy, _views(nets, attack, f, n_alive, pools, q_cum, q_step), t)
        decisions.append(dec)
        new = _coupling_phase(q_cum, t, f, n_alive, pools, dec.matrix)
        steps.append(new)
        if t:
            _check_monotone(state, new)
            # Held load on an empty network moves next step; don't stop while
            # more than one node's worth is still in flight.
            if all(abs(a - b) < 1.0 for a, b in zip(new.n_alive, state.n_alive)) and all(
                    held < net[2] for held, na, net in zip(new.total_extra, new.n_alive, nets)
                    if na < 1.0):
                no_new_failures = all(fi <= p + 1e-15 for fi, p in zip(new.f, attack.p))
                return finish(Outcome.NO_CASCADE if no_new_failures else Outcome.SURVIVED, t)
        state, q_cum, q_step = new, new.q_cum, new.q_step
    return finish(Outcome.NON_CONVERGED, max_steps)


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


def trajectory_to_csv(traj: MeanFieldTrajectory, path: str) -> None:
    """Columns: t, network, f, n_alive, F, Q_step, Q_cum."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "network", "f", "n_alive", "F", "Q_step", "Q_cum"])
        for st in traj.steps:
            for i in range(len(st.f)):
                w.writerow([st.t, i, repr(st.f[i]), repr(st.n_alive[i]),
                            repr(st.total_extra[i]), repr(st.q_step[i]),
                            repr(st.q_cum[i])])
