"""End-to-end acceptance runs.

Each test prints one line with the measured values. The full module took
about 8 minutes on a 2-vCPU Xeon; criterion 5's ER/ER heatmap is most of it.
Marked `acceptance`, so `pytest -m "not acceptance"` leaves it out.
"""

import time

import numpy as np
import pytest

from cascnet.core import (AttackSpec, BarabasiAlbert, Complete, CouplingMatrix,
                          EdgeListTopology, ErdosRenyi, NetworkConfig)
from cascnet.distributions import Point, ShiftedExponential, Uniform
from cascnet.meanfield import mf_run, rkg_run
from cascnet.montecarlo import (_edges_to_csr, apply_attack, mc_run,
                                mc_step_complete, sample_population)
from cascnet.search import (GraphCache, attack_sweep, critical_attack_size,
                            fcc_grid_sweep, make_meanfield_runner,
                            make_montecarlo_runner)
from cascnet.strategies import (FCC, SBD, SWO, _model_pool, decide,
                                swo_objective)

pytestmark = pytest.mark.acceptance

N_SIM = 10 ** 5


def nonidentical_cfgs(n=N_SIM):
    return [NetworkConfig(0, n, Point(75.0), Uniform(20, 180)),
            NetworkConfig(1, n, Point(75.0), Uniform(40, 280))]


def identical_uniform_cfgs(n=N_SIM):
    return [NetworkConfig(0, n, Point(75.0), Uniform(20, 180)),
            NetworkConfig(1, n, Point(75.0), Uniform(20, 180))]


def identical_exponential_cfgs(n=N_SIM):
    space = ShiftedExponential(20.0, 1.0 / 120.0)
    return [NetworkConfig(0, n, Point(60.0), space),
            NetworkConfig(1, n, Point(60.0), space)]


def system_portion(fractions, cfgs):
    counts = np.array([c.node_count for c in cfgs], dtype=float)
    return float(np.dot(fractions, counts) / counts.sum())


def test_criterion_1_nonidentical_critical_sizes():
    """Non-identical uniform setting: SWO 0.634 and best fixed coupling 0.632,
    both within 0.01, with the attack aimed at the wider-spaced network."""
    cfgs = nonidentical_cfgs()
    shape = (0.0, 1.0)
    heat = fcc_grid_sweep(cfgs, attack_shape=shape, resolution=0.05,
                          tol=1e-3, use_meanfield=True)
    a, b = heat.argmax
    fcc = critical_attack_size(
        make_montecarlo_runner(cfgs, FCC(CouplingMatrix.two_net(a, b)), shape,
                               seeds=[0, 1, 2]), tol=1e-3)
    swo = critical_attack_size(
        make_montecarlo_runner(cfgs, SWO(), shape, seeds=[0, 1, 2]), tol=1e-3)
    print(f"criterion1: best_fcc=({a:.2f},{b:.2f}) fcc={fcc.value:.4f} "
          f"swo={swo.value:.4f}")
    assert fcc.value == pytest.approx(0.632, abs=0.01)
    assert swo.value == pytest.approx(0.634, abs=0.01)


def test_criterion_2_identical_sweeps_swo_matches_sbd():
    """Identical networks: SWO and SBD survival sweeps agree within 0.005
    pointwise (100 seeds per point)."""
    cases = [
        (identical_uniform_cfgs(), [0.30, 0.35, 0.40, 0.45, 0.50, 0.55]),
        (identical_exponential_cfgs(), [0.15, 0.20, 0.25, 0.30, 0.35, 0.40]),
    ]
    worst = 0.0
    for cfgs, grid in cases:
        cache = GraphCache(cfgs)
        seeds = range(100)
        sbd = attack_sweep(cfgs, SBD(), grid, attack_shape=(1.0, 0.0),
                           seeds=seeds, cache=cache)
        swo = attack_sweep(cfgs, SWO(), grid, attack_shape=(1.0, 0.0),
                           seeds=seeds, cache=cache)
        gaps = [abs(a - b) for a, b in zip(sbd.mean_fraction, swo.mean_fraction)]
        worst = max(worst, max(gaps))
    print(f"criterion2: worst_pointwise_gap={worst:.5f}")
    assert worst <= 0.005


def test_criterion_3_symmetric_fcc_optimum_and_adaptive_dominance():
    """Narrow-space setting: adaptive strategies beat every symmetric fixed
    coupling, and the best symmetric coupling should sit at 0.65."""
    cfgs = [NetworkConfig(0, 10 ** 6, Uniform(10, 30), Uniform(10, 65)),
            NetworkConfig(1, 10 ** 6, Uniform(10, 30), Uniform(10, 65))]
    shape = (1.0, 0.0)
    xs = [round(0.05 * i, 2) for i in range(21)]
    diag = []
    for x in xs:
        runner = make_meanfield_runner(cfgs, FCC(CouplingMatrix.two_net(x, x)), shape)
        diag.append(critical_attack_size(runner, tol=1e-3).value)
    best_x = xs[int(np.argmax(diag))]
    best_fcc = max(diag)
    sbd = critical_attack_size(make_meanfield_runner(cfgs, SBD(), shape), tol=1e-3)
    swo = critical_attack_size(make_meanfield_runner(cfgs, SWO(), shape), tol=1e-3)
    print(f"criterion3: best_x={best_x:.2f} best_fcc={best_fcc:.4f} "
          f"sbd={sbd.value:.4f} swo={swo.value:.4f}")
    assert sbd.value > best_fcc
    assert swo.value > best_fcc
    assert best_x == pytest.approx(0.65, abs=0.051), \
        f"symmetric optimum measured at x={best_x}, not 0.65"


def test_criterion_4_meanfield_matches_simulation():
    """Mean-field surviving portion within 0.005 of the Monte-Carlo mean on a
    20-point attack grid, for all three verification settings."""
    settings = [
        identical_uniform_cfgs(),
        nonidentical_cfgs(),
        identical_exponential_cfgs(),
    ]
    grid = np.linspace(0.03, 0.60, 20)
    worst = 0.0
    for cfgs in settings:
        counts = tuple(c.node_count for c in cfgs)
        for g in grid:
            attack = AttackSpec((float(g), 0.0))
            mf = mf_run(cfgs, attack, SBD()).surviving_portion(counts)
            mc = np.mean([
                system_portion(mc_run(cfgs, attack, SBD(), seed=s).final_fractions, cfgs)
                for s in range(10)])
            worst = max(worst, abs(mf - mc))
    print(f"criterion4: worst_abs_gap={worst:.5f}")
    assert worst <= 0.005


def test_criterion_5_er_er_heatmap_and_swo():
    """ER(20)/ER(40) pair: coarse heatmap optimum lands within one cell of
    (0.4, 0.9) at 0.52 +- 0.03; SWO reaches 0.49 +- 0.03. Must finish in
    under 30 minutes."""
    t0 = time.monotonic()
    cfgs = [NetworkConfig(0, N_SIM, Point(75.0), Uniform(20, 180), ErdosRenyi(20.0)),
            NetworkConfig(1, N_SIM, Point(75.0), Uniform(20, 180), ErdosRenyi(40.0))]
    grid = tuple(round(0.1 * i, 1) for i in range(1, 10))
    tol = 0.01
    heat = fcc_grid_sweep(cfgs, attack_shape=(1.0, 0.0), tol=tol,
                          seeds=[0, 1, 2], alpha_grid=grid, beta_grid=grid)
    # the top of the heatmap is a plateau of ties, so require that (0.4, 0.9)
    # or one of its neighbors attains the maximum within one bisection step
    near = max(heat.cells[i][j]
               for i, a in enumerate(grid) for j, b in enumerate(grid)
               if abs(a - 0.4) <= 0.1 + 1e-9 and abs(b - 0.9) <= 0.1 + 1e-9)
    swo = critical_attack_size(
        make_montecarlo_runner(cfgs, SWO(), (1.0, 0.0), seeds=[0, 1, 2],
                               cache=GraphCache(cfgs)), tol=5e-3)
    elapsed = time.monotonic() - t0
    print(f"criterion5: argmax={heat.argmax} max={heat.max_value:.4f} "
          f"near(0.4,0.9)={near:.4f} swo={swo.value:.4f} elapsed={elapsed:.0f}s")
    assert near >= heat.max_value - tol
    assert heat.max_value == pytest.approx(0.52, abs=0.03)
    assert swo.value == pytest.approx(0.49, abs=0.03)
    assert elapsed < 1800


def test_criterion_6_ba_ba_best_fcc_and_swo():
    """BA(20)/BA(40) pair: (0.5, 0.9) is the best cell of a coarse grid with
    critical size 0.42 +- 0.03; SWO reaches 0.396 +- 0.03."""
    cfgs = [NetworkConfig(0, N_SIM, Point(75.0), Uniform(20, 180), BarabasiAlbert(20.0)),
            NetworkConfig(1, N_SIM, Point(75.0), Uniform(20, 180), BarabasiAlbert(40.0))]
    coarse = (0.1, 0.5, 0.9)
    heat = fcc_grid_sweep(cfgs, attack_shape=(1.0, 0.0), tol=0.01, seeds=[0],
                          alpha_grid=coarse, beta_grid=coarse)
    best = heat.cells[1][2]  # the (0.5, 0.9) cell
    swo = critical_attack_size(
        make_montecarlo_runner(cfgs, SWO(), (1.0, 0.0), seeds=[0],
                               cache=GraphCache(cfgs)), tol=5e-3)
    print(f"criterion6: cell(0.5,0.9)={best:.4f} grid_max={heat.max_value:.4f} "
          f"swo={swo.value:.4f}")
    assert best == pytest.approx(0.42, abs=0.03)
    assert best >= heat.max_value - 0.01
    assert swo.value == pytest.approx(0.396, abs=0.03)


def test_criterion_7_property_suite():
    """Model invariants that need no reference numbers."""
    rng = np.random.default_rng(1)

    # (a) the SWO objective is midpoint-convex in (alpha, beta) on random
    # reachable states
    def rand_view():
        p = rng.uniform(0.0, 0.8)
        sf = rng.uniform(0.05, 1.0)
        lo, width = rng.uniform(0, 50), rng.uniform(50, 300)
        from cascnet.strategies import NetView
        return NetView(n_alive=(1 - p) * sf * 1e6, pool=rng.uniform(0, 5e7),
                       q_cum=lo + (1 - sf) * width, attack_frac=p,
                       node_count=1e6, load_mean=75.0,
                       space_dist=Uniform(lo, lo + width))

    def objective(a, b, views):
        return swo_objective(CouplingMatrix.two_net(a, b), views)

    for _ in range(1000):
        views = [rand_view(), rand_view()]
        (a1, b1), (a2, b2) = rng.uniform(size=(2, 2))
        f1, f2 = objective(a1, b1, views), objective(a2, b2, views)
        mid = objective(0.5 * (a1 + a2), 0.5 * (b1 + b2), views)
        assert mid <= 0.5 * (f1 + f2) + 1e-9 * max(1.0, abs(f1), abs(f2))

    # (b) the SWO decision is no worse than a fine (alpha, beta) grid
    for _ in range(20):
        views = [rand_view(), rand_view()]
        val = decide(SWO(), views, 1).objective_value
        g = np.linspace(0, 1, 101)
        aa, bb = np.meshgrid(g, g, indexing="ij")
        va, vb = views
        grid = (_model_pool(va, aa * va.pool + (1 - bb) * vb.pool)
                + _model_pool(vb, (1 - aa) * va.pool + bb * vb.pool))
        assert val <= np.min(grid) + 1e-9 * max(1.0, abs(val))

    # (c) load conservation per simulation step (relative 1e-6)
    cfgs = identical_uniform_cfgs(2000)
    pops = [sample_population(c, rng) for c in cfgs]
    total = sum(float(p.load.sum()) for p in pops)
    pools = [apply_attack(p, frac, rng)[1]
             for p, frac in zip(pops, (0.45, 0.0))]
    for _ in range(100):
        held = sum(float(p.load[p.alive].sum()) + p.alive_count * p.shared
                   for p in pops) + sum(pools)
        assert abs(held - total) <= 1e-6 * total
        if all(pl <= 0 for pl in pools):
            break
        pools = mc_step_complete(pops, pools, CouplingMatrix.two_net(0.6, 0.6))

    # (d) failed fraction and cumulative extra load never decrease
    traj = mf_run(identical_uniform_cfgs(10 ** 6), AttackSpec((0.5, 0.0)), SBD())
    for prev, cur in zip(traj.steps, traj.steps[1:]):
        assert all(c >= p - 1e-12 for p, c in zip(prev.f, cur.f))
        assert all(c >= p - 1e-12 for p, c in zip(prev.q_cum, cur.q_cum))

    # (e) local stepping on a complete adjacency matches global stepping
    n = 100
    i, j = np.triu_indices(n, k=1)
    g = _edges_to_csr(n, i.astype(np.int64), j.astype(np.int64))
    local_cfgs = [NetworkConfig(k, n, Point(75.0), Uniform(20, 180),
                                EdgeListTopology("unused")) for k in range(2)]
    ref = mc_run(identical_uniform_cfgs(n), AttackSpec((0.45, 0.0)), SBD(), seed=0)
    loc = mc_run(local_cfgs, AttackSpec((0.45, 0.0)), SBD(), seed=0, graphs=[g, g])
    assert loc.final_fractions == pytest.approx(ref.final_fractions, abs=0.02)

    # (f) survivor-weighted balancing equalizes the per-survivor increment
    va, vb = rand_view(), rand_view()
    m = decide(SBD(), [va, vb], 1).matrix.as_array()
    u = (m.T @ np.array([va.pool, vb.pool])) / np.array([va.n_alive, vb.n_alive])
    assert u[0] == pytest.approx(u[1])

    # (g) hand-traced four-node cascade
    tiny = [NetworkConfig(0, 2, Point(10.0), Point(5.0)),
            NetworkConfig(1, 2, Point(10.0), Point(50.0))]
    out = mc_run(tiny, AttackSpec((0.5, 0.0)),
                 FCC(CouplingMatrix.two_net(1.0, 1.0)), seed=1)
    assert out.final_fractions == (0.0, 1.0) and not out.breakdown

    # (h) the single-group recursion reproduces a single-network run
    for p in (0.1, 0.3, 0.45):
        cfg = [NetworkConfig(0, 10 ** 6, Point(75.0), Uniform(20, 180))]
        traj = mf_run(cfg, AttackSpec((p,)), FCC(CouplingMatrix.identity(1)))
        _, portion = rkg_run(p, 1, Point(75.0), Uniform(20, 180))
        assert traj.surviving_portion((10 ** 6,)) == pytest.approx(portion, abs=1e-9)
    print("criterion7: all eight properties hold")


def test_criterion_8_er_degree_monotonicity():
    """Critical size non-decreasing in ER mean degree {10,20,30,40}; the
    degree-40 value within 0.02 of the complete-graph system."""
    tol = 5e-3
    values = {}
    for deg in (10, 20, 30, 40):
        cfgs = [NetworkConfig(0, N_SIM, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, N_SIM, Point(75.0), Uniform(20, 180),
                              ErdosRenyi(float(deg)))]
        runner = make_montecarlo_runner(cfgs, SWO(), (1.0, 0.0),
                                        seeds=[0, 1, 2], cache=GraphCache(cfgs))
        values[deg] = critical_attack_size(runner, tol=tol).value
    complete_cfgs = identical_uniform_cfgs()
    complete = critical_attack_size(
        make_montecarlo_runner(complete_cfgs, SWO(), (1.0, 0.0),
                               seeds=[0, 1, 2]), tol=tol).value
    print(f"criterion8: {values} complete={complete:.4f}")
    degs = sorted(values)
    for lo, hi in zip(degs, degs[1:]):
        assert values[hi] >= values[lo] - tol
    assert abs(values[40] - complete) <= 0.02
