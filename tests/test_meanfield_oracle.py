"""Oracle for the mean-field engine: `mf_run` as it was before its steps
shared one set of per-run constants and a fixed coupling was decided once.
The engine must reproduce it bit for bit, decisions and errors included.
Since then only its result wrapper and its settle test were restated: it
returns a `RunResult`, and an empty network whose mean load is 0 settles."""

import math
import random

import pytest

from cascnet import meanfield
from cascnet.core import AttackSpec, CouplingMatrix, NetworkConfig
from cascnet.distributions import (Point, ShiftedExponential, Uniform,
                                   dist_mean, dist_sf_geq)
from cascnet.meanfield import (DEFAULT_MAX_STEPS, MeanFieldError,
                               MeanFieldState, Outcome, RunResult)
from cascnet.strategies import (FCC, SBD, SWO, CouplingDecision,
                                CouplingStrategy, NetView, StrategyError,
                                decide)

# ---------------------------------------------------------------------------
# Reference engine, kept verbatim but for its result and settle test
# ---------------------------------------------------------------------------


def _routed_inbound(pools: list[float], coupling: CouplingMatrix,
                    live: list[bool]) -> list[float]:
    """Inbound totals; a pool emitted by an empty network follows its row
    renormalized over networks that still have survivors."""
    n = len(pools)
    recv = [0.0] * n
    for i in range(n):
        if pools[i] <= 0.0:
            continue
        row = [coupling.entry(i, k) for k in range(n)]
        if not live[i]:
            mass = sum(row[k] for k in range(n) if live[k])
            if mass > 0.0:
                row = [row[k] / mass if live[k] else 0.0 for k in range(n)]
            else:
                alive_total = sum(live)
                if alive_total == 0:
                    continue  # nothing left anywhere; caller declares breakdown
                row = [1.0 / alive_total if live[k] else 0.0 for k in range(n)]
        for k in range(n):
            recv[k] += pools[i] * row[k]
    return recv


def _failure_phase(prev: MeanFieldState, cfgs: list[NetworkConfig],
                   attack: AttackSpec) -> tuple[list[float], list[float], list[float]]:
    """(f_t, N_t, F_t) implied by the load placed through step t-1.

    For a network that already had no survivors, prev.total_extra holds load
    that landed on it last step and is still in flight; it joins this step's
    pool so the coupling phase can forward it.
    """
    f, n_alive, pools = [], [], []
    for i, cfg in enumerate(cfgs):
        surv = (1.0 - attack.p[i]) * dist_sf_geq(cfg.space_dist, prev.q_cum[i])
        fi = 1.0 - surv
        newly = max(fi - prev.f[i], 0.0)
        load = dist_mean(cfg.load_dist) + (prev.q_cum[i] if math.isfinite(prev.q_cum[i]) else 0.0)
        pool = cfg.node_count * newly * load
        if prev.n_alive[i] < 1.0:
            pool += prev.total_extra[i]
        f.append(fi)
        n_alive.append(surv * cfg.node_count)
        pools.append(pool)
    return f, n_alive, pools


def _coupling_phase(prev: MeanFieldState, t: int, f, n_alive, pools,
                    coupling: CouplingMatrix) -> MeanFieldState:
    """Route this step's pools. An empty network keeps what lands on it in
    its pool slot (forwarded next step); its per-survivor increment is the
    +inf sentinel."""
    n = len(f)
    live = [na >= 1.0 for na in n_alive]
    recv = _routed_inbound(pools, coupling, live)
    q_step, q_cum, held = [], [], []
    for k in range(n):
        if live[k]:
            dq = recv[k] / n_alive[k]
            held.append(pools[k])
        else:
            dq = math.inf if recv[k] > 0.0 else 0.0
            held.append(recv[k])
        q_step.append(dq)
        q_cum.append(prev.q_cum[k] + dq)
    return MeanFieldState(t, tuple(f), tuple(n_alive), tuple(held),
                          tuple(q_step), tuple(q_cum))


def _views(n_alive, pools, q_cum, cfgs, attack) -> list[NetView]:
    return [
        NetView(
            n_alive=n_alive[i], pool=pools[i], q_cum=q_cum[i],
            attack_frac=attack.p[i], node_count=cfgs[i].node_count,
            load_mean=dist_mean(cfgs[i].load_dist), space_dist=cfgs[i].space_dist,
        )
        for i in range(len(cfgs))
    ]


def _check_monotone(prev: MeanFieldState, cur: MeanFieldState) -> None:
    for i in range(len(cur.f)):
        if cur.f[i] < prev.f[i] - 1e-12:
            raise MeanFieldError(f"failed fraction decreased for network {i} at t={cur.t}")
        if cur.q_cum[i] < prev.q_cum[i] - 1e-12:
            raise MeanFieldError(f"cumulative load decreased for network {i} at t={cur.t}")


def mf_run(cfgs: list[NetworkConfig], attack: AttackSpec,
           strategy: CouplingStrategy, max_steps: int = DEFAULT_MAX_STEPS) -> RunResult:
    """Iterate to a fixed point, asking the strategy for a fresh coupling
    matrix each step (after failures are known, before the load lands)."""
    if max_steps < 1:
        raise MeanFieldError("max_steps must be >= 1")
    n = len(cfgs)
    if len(attack.p) != n:
        raise MeanFieldError(f"attack has {len(attack.p)} entries for {n} networks")

    f0 = list(attack.p)
    n0 = [(1.0 - p) * c.node_count for p, c in zip(f0, cfgs)]
    pool0 = [c.node_count * p * dist_mean(c.load_dist) for p, c in zip(f0, cfgs)]
    decisions: list[CouplingDecision] = []

    def finish(steps, outcome, taken):
        final = steps[-1]
        fractions = tuple(1.0 - fi for fi in final.f)
        return RunResult(fractions, final.n_alive, taken, outcome, steps, decisions)

    base = MeanFieldState(0, tuple(f0), tuple(n0), tuple(pool0),
                          (0.0,) * n, (0.0,) * n)
    if all(na < 1.0 for na in n0):
        return finish([base], Outcome.BREAKDOWN, 0)

    dec0 = decide(strategy, _views(n0, pool0, [0.0] * n, cfgs, attack), 0)
    decisions.append(dec0)
    state = _coupling_phase(base, 0, f0, n0, pool0, dec0.matrix)
    steps = [state]

    for t in range(1, max_steps + 1):
        f, n_alive, pools = _failure_phase(state, cfgs, attack)
        if all(na < 1.0 for na in n_alive):
            terminal = MeanFieldState(t, tuple(f), tuple(n_alive), tuple(pools),
                                      (0.0,) * n, state.q_cum)
            steps.append(terminal)
            return finish(steps, Outcome.BREAKDOWN, t)
        dec = decide(strategy, _views(n_alive, pools, state.q_cum, cfgs, attack), t)
        decisions.append(dec)
        new = _coupling_phase(state, t, f, n_alive, pools, dec.matrix)
        _check_monotone(state, new)
        converged = all(abs(new.n_alive[i] - state.n_alive[i]) < 1.0 for i in range(n))
        # Held load on an empty network moves next step; don't stop while
        # more than one node's worth is still in flight.
        converged = converged and all(
            new.total_extra[i] <= 0.0 or new.total_extra[i] < dist_mean(cfgs[i].load_dist)
            for i in range(n) if new.n_alive[i] < 1.0
        )
        steps.append(new)
        state = new
        if converged:
            no_new_failures = all(new.f[i] <= attack.p[i] + 1e-15 for i in range(n))
            outcome = Outcome.NO_CASCADE if no_new_failures else Outcome.SURVIVED
            return finish(steps, outcome, t)
    return finish(steps, Outcome.NON_CONVERGED, max_steps)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def net(i, nodes, load, space):
    return NetworkConfig(i, nodes, load, space)


SEXP = ShiftedExponential(20.0, 1 / 120.0)

ONE = [net(0, 10 ** 5, Point(75.0), Uniform(20, 180))]
ONE_SEXP = [net(0, 500, ShiftedExponential(30.0, 1 / 40.0), SEXP)]
UNIFORM_PAIR = [net(0, 10 ** 5, Point(75.0), Uniform(20, 180)),
                net(1, 10 ** 5, Point(75.0), Uniform(40, 280))]
NARROW_PAIR = [net(0, 10 ** 6, Uniform(10, 30), Uniform(10, 65)),
               net(1, 10 ** 6, Uniform(10, 30), Uniform(10, 65))]
MIXED_PAIR = [net(0, 10 ** 5, Point(60.0), SEXP),
              net(1, 3000, Uniform(40, 80), Point(90.0))]
SEXP_PAIR = [net(0, 10 ** 5, ShiftedExponential(30.0, 1 / 40.0), SEXP),
             net(1, 200, Point(60.0), SEXP)]
UNIFORM_THREE = [net(0, 10 ** 5, Point(75.0), Uniform(20, 180)),
                 net(1, 10 ** 5, Uniform(50, 100), Uniform(40, 280)),
                 net(2, 10 ** 5, ShiftedExponential(30.0, 1 / 40.0), Uniform(30, 230))]
# Four nodes a network: an attack of 0.75 leaves exactly one survivor.
TINY_PAIR = [net(0, 4, Point(10.0), Uniform(5, 30)),
             net(1, 4, Uniform(5, 15), Point(20.0))]
MIXED_THREE = [net(0, 10 ** 5, Point(75.0), Uniform(20, 180)),
               net(1, 50, Point(75.0), Point(120.0)),
               net(2, 10 ** 4, Uniform(10, 30), SEXP)]

PAIR_FCC = [FCC(CouplingMatrix.two_net(a, b))
            for a, b in ((0.5, 0.5), (1.0, 1.0), (0.0, 0.0), (1.0, 0.3), (0.4, 1.0))]
THREE_FCC = [FCC(CouplingMatrix.identity(3)),
             FCC(CouplingMatrix(((0.5, 0.5, 0.0), (0.0, 0.2, 0.8), (1.0, 0.0, 0.0)))),
             FCC(CouplingMatrix(((0.2, 0.3, 0.5),) * 3))]
PAIR_ATTACKS = [(0.0, 0.0), (0.1, 0.0), (0.4, 0.0), (0.0, 0.55), (0.5, 0.3),
                (0.8, 0.0), (1.0, 0.0), (1.0, 0.5), (0.3, 1.0), (1.0, 1.0)]
THREE_ATTACKS = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.2, 0.4, 0.1),
                 (1.0, 0.2, 0.0), (0.5, 1.0, 0.3), (0.0, 0.0, 1.0)]

CASES = (
    [(ONE, (p,), FCC(CouplingMatrix.identity(1))) for p in (0.0, 0.1, 0.45, 0.6, 1.0)]
    + [(ONE_SEXP, (p,), FCC(CouplingMatrix.identity(1))) for p in (0.2, 0.5, 0.9)]
    + [(ONE, (0.3,), SBD())]
    + [(cfgs, a, s) for cfgs in (UNIFORM_PAIR, NARROW_PAIR, MIXED_PAIR, SEXP_PAIR)
       for a in PAIR_ATTACKS for s in PAIR_FCC + [SBD(), SWO(), SWO(((0.2, 0.7), (0.5, 0.9)))]]
    + [(TINY_PAIR, a, s) for a in ((0.75, 0.0), (0.75, 0.5), (0.25, 0.75), (0.75, 0.75))
       for s in PAIR_FCC + [SBD(), SWO()]]
    + [(UNIFORM_THREE, a, s) for a in THREE_ATTACKS for s in THREE_FCC + [SBD(), SWO()]]
    + [(MIXED_THREE, a, s) for a in THREE_ATTACKS for s in THREE_FCC + [SBD()]]
)


def _law(rng: random.Random, point_values):
    kind = rng.choice(("uniform", "shiftedexp", "point"))
    if kind == "uniform":
        lo = rng.choice((0.0, rng.uniform(0.0, 60.0)))
        return Uniform(lo, lo + rng.uniform(0.5, 300.0))
    if kind == "shiftedexp":
        return ShiftedExponential(rng.choice((0.0, rng.uniform(0.0, 60.0))),
                                  1.0 / rng.uniform(5.0, 200.0))
    return Point(rng.choice(point_values + (rng.uniform(0.0, 150.0), rng.uniform(0.0, 150.0))))


def _row(rng: random.Random, n: int) -> tuple[float, ...]:
    """A random row summing to 1 within rounding, some entries zero."""
    weights = [rng.choice((0.0, rng.random())) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1.0
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_cases(count: int, seed: int = 20):
    """(cfgs, attack, strategy, max_steps): 1-4 networks of 1 to 10**6
    nodes, every law family (point loads of 0 and -0.0 among them), attack
    entries at 0 and 1, random FCC rows with zeros, SBD, SWO on pairs, and
    caps of 1-3 steps or the default."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 4)
        max_steps = rng.choice((1, 2, 3, DEFAULT_MAX_STEPS, DEFAULT_MAX_STEPS))
        cfgs = [net(i, rng.choice((1, 4, 10 ** 6) + (int(10 ** rng.uniform(0, 6)),) * 3),
                    _law(rng, (0.0, -0.0)), _law(rng, (0.0, 50.0)))
                for i in range(n)]
        attack = tuple(rng.choice((0.0, 1.0, rng.random(), rng.uniform(0.0, 0.3)))
                       for _ in range(n))
        kind = rng.choice(("fcc", "sbd", "swo", "swo_bounded") if n == 2 else ("fcc", "sbd"))
        if kind == "fcc":
            strategy = FCC(CouplingMatrix(tuple(_row(rng, n) for _ in range(n))))
        elif kind == "sbd":
            strategy = SBD()
        elif kind == "swo":
            strategy = SWO()
        else:
            lo = rng.uniform(0.0, 0.5)
            strategy = SWO(((lo, rng.uniform(lo, 1.0)),))
        cases.append((cfgs, attack, strategy, max_steps))
    return cases


def outcome(run, *args, **kwargs) -> str:
    """repr of a run's result, or of the error it raised."""
    try:
        return repr(run(*args, **kwargs))
    except (MeanFieldError, StrategyError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestMeanFieldOracle:
    def test_trajectories_and_decisions(self):
        assert len(CASES) > 350
        seen = set()
        for cfgs, p, strategy in CASES:
            attack = AttackSpec(p)
            want = mf_run(cfgs, attack, strategy)
            got = meanfield.mf_run(cfgs, attack, strategy)
            assert repr(got) == repr(want), (cfgs, p, strategy)
            seen.add(want.outcome)
        assert seen == {Outcome.NO_CASCADE, Outcome.SURVIVED, Outcome.BREAKDOWN}

    def test_random_systems(self):
        seen = set()
        for cfgs, p, strategy, max_steps in random_cases(400):
            attack = AttackSpec(p)
            want = outcome(mf_run, cfgs, attack, strategy, max_steps=max_steps)
            got = outcome(meanfield.mf_run, cfgs, attack, strategy, max_steps=max_steps)
            assert got == want, (cfgs, p, strategy, max_steps)
            seen.update(o for o in Outcome if repr(o) in want)
        assert seen == set(Outcome)

    def test_held_load_and_sentinel(self):
        # A is emptied by the attack; B sends it half its pool, which A holds
        # (increment +inf) and forwards the step after.
        cfgs, attack = UNIFORM_PAIR, AttackSpec((1.0, 0.5))
        traj = meanfield.mf_run(cfgs, attack, PAIR_FCC[0])
        first = traj.trajectory[0]
        assert math.isinf(first.q_cum[0]) and first.total_extra[0] > 0
        assert repr(traj) == repr(mf_run(cfgs, attack, PAIR_FCC[0]))

    @pytest.mark.parametrize("max_steps", [1, 2, 5])
    def test_step_cap(self, max_steps):
        for strategy in (SBD(), SWO(), PAIR_FCC[0]):
            got = meanfield.mf_run(UNIFORM_PAIR, AttackSpec((0.0, 0.55)), strategy,
                                   max_steps=max_steps)
            assert got.outcome is Outcome.NON_CONVERGED
            assert len(got.decisions) == max_steps + 1
            assert repr(got) == repr(mf_run(UNIFORM_PAIR, AttackSpec((0.0, 0.55)), strategy,
                                            max_steps=max_steps))

    def test_errors(self):
        calls = [(UNIFORM_PAIR, AttackSpec((0.5,)), SBD(), {}),
                 (UNIFORM_PAIR, AttackSpec((0.5, 0.0, 0.0)), PAIR_FCC[0], {}),
                 (UNIFORM_PAIR, AttackSpec((0.5, 0.0)), SBD(), {"max_steps": 0}),
                 (UNIFORM_PAIR, AttackSpec((0.5,)), SBD(), {"max_steps": -1}),
                 (UNIFORM_PAIR, AttackSpec((0.5, 0.0)), THREE_FCC[0], {}),
                 (ONE, AttackSpec((0.5,)), SWO(), {})]
        for cfgs, attack, strategy, kwargs in calls:
            want = outcome(mf_run, cfgs, attack, strategy, **kwargs)
            assert want.startswith(("MeanFieldError", "StrategyError"))
            assert outcome(meanfield.mf_run, cfgs, attack, strategy, **kwargs) == want

    def test_fixed_coupling_decided_once(self, monkeypatch):
        calls = []

        def counting(strategy, views, t):
            calls.append(t)
            return decide(strategy, views, t)

        monkeypatch.setattr(meanfield, "decide", counting)
        runs = 0
        for cfgs, p, strategy in CASES:
            if not isinstance(strategy, FCC):
                continue
            calls.clear()
            got = meanfield.mf_run(cfgs, AttackSpec(p), strategy)
            assert repr(got) == repr(mf_run(cfgs, AttackSpec(p), strategy))
            assert len(got.decisions) == got.steps_taken + (got.outcome is not Outcome.BREAKDOWN)
            empty_at_start = got.outcome is Outcome.BREAKDOWN and got.steps_taken == 0
            assert calls == ([] if empty_at_start else [0])
            runs += not empty_at_start
        assert runs > 100
