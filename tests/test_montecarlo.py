"""Node-level simulation: hand-traced cascades, conservation, graphs."""

import copy
import math

import numpy as np
import pytest

from cascnet.core import (AttackSpec, BarabasiAlbert, Complete, CouplingMatrix,
                          EdgeListTopology, ErdosRenyi, NetworkConfig)
from cascnet.distributions import Point, ShiftedExponential, Uniform
from cascnet.meanfield import _routed_inbound
from cascnet.montecarlo import (Graph, NodePopulation, SimulationError,
                                _edges_to_csr, _empirical_views, _pair_from_index,
                                _record, apply_attack, generate_graph, mc_run,
                                mc_step_complete, mc_step_local, read_edge_list,
                                sample_population, write_edge_list)
from cascnet.search import GraphCache
from cascnet import montecarlo
from cascnet.strategies import FCC, SBD, SWO, StrategyError, decide


def complete_graph(n: int) -> Graph:
    i, j = np.triu_indices(n, k=1)
    return _edges_to_csr(n, i.astype(np.int64), j.astype(np.int64))


class TestHandTraced:
    """Two 2-node networks with point distributions: every load is 10, A's
    free space is 5, B's is 50, and one node of A is attacked."""

    CFGS = [NetworkConfig(0, 2, Point(10.0), Point(5.0)),
            NetworkConfig(1, 2, Point(10.0), Point(50.0))]

    def test_load_sent_away_stops_cascade(self):
        # alpha=0 sends A's pool to B: each B node takes 5 < 50, no deaths
        out = mc_run(self.CFGS, AttackSpec((0.5, 0.0)),
                     FCC(CouplingMatrix.two_net(0.0, 1.0)), seed=1)
        assert out.final_fractions == (0.5, 1.0)
        assert not out.breakdown

    def test_internal_load_kills_survivor_then_forwards(self):
        # alpha=1 drops 10 on A's survivor (space 5): it dies holding 20.
        # A is now empty, so the 20 is rerouted to B: 10 each, below 50.
        out = mc_run(self.CFGS, AttackSpec((0.5, 0.0)),
                     FCC(CouplingMatrix.two_net(1.0, 1.0)), seed=1,
                     record_trajectory=True)
        assert out.final_fractions == (0.0, 1.0)
        assert not out.breakdown
        final = out.trajectory[-1]
        assert final.q_cum[1] == pytest.approx(10.0)

    def test_full_attack_everywhere_is_breakdown(self):
        out = mc_run(self.CFGS, AttackSpec((1.0, 1.0)), SBD(), seed=1)
        assert out.breakdown
        assert out.final_fractions == (0.0, 0.0)


class TestLoadConservation:
    """Load held by survivors plus outstanding pools stays constant until no
    node survives anywhere; local mode steps along each network's graph."""

    def _check(self, cfgs, attack, coupling, seed, steps=200):
        rng = np.random.default_rng(seed)
        pops = [sample_population(c, rng, generate_graph(c.topology, c.node_count, seed + k))
                for k, c in enumerate(cfgs)]
        local = any(p.graph is not None for p in pops)
        total = sum(float(p.load.sum()) for p in pops)
        newly_dead, pools = [], []
        for pop, p in zip(pops, attack.p):
            victims, pool = apply_attack(pop, p, rng)
            newly_dead.append(np.sort(victims))
            pools.append(pool)
        for _ in range(steps):
            held = sum(float(pop.load[pop.alive].sum())
                       + float(pop.received[pop.alive].sum())
                       for pop in pops) + sum(pools)
            assert held == pytest.approx(total, rel=1e-9)
            if all(pl <= 0 for pl in pools) or all(p.alive_count == 0 for p in pops):
                return pops
            if local:
                newly_dead, pools = mc_step_local(pops, newly_dead, coupling)
            else:
                pools = mc_step_complete(pops, pools, coupling)
        raise AssertionError("cascade did not settle")

    def test_conserved_through_partial_cascade(self):
        cfgs = [NetworkConfig(0, 2000, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 2000, Point(75.0), Uniform(20, 180))]
        self._check(cfgs, AttackSpec((0.4, 0.0)), CouplingMatrix.two_net(0.6, 0.6), 3)

    def test_conserved_through_breakdown(self):
        cfgs = [NetworkConfig(0, 1000, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 1000, Point(75.0), Uniform(20, 180))]
        self._check(cfgs, AttackSpec((0.75, 0.2)), CouplingMatrix.two_net(0.5, 0.5), 7)

    def test_local_conserved_through_partial_cascade(self):
        cfgs = [NetworkConfig(0, 2000, Point(75.0), Uniform(20, 180), ErdosRenyi(10.0)),
                NetworkConfig(1, 2000, Point(75.0), Uniform(20, 180), ErdosRenyi(20.0))]
        pops = self._check(cfgs, AttackSpec((0.4, 0.0)), CouplingMatrix.two_net(0.6, 0.6), 3)
        assert all(p.alive_count > 0 for p in pops)
        assert any(p.alive_count < p.alive.size * 0.6 for p in pops)

    def test_local_conserved_through_breakdown(self):
        cfgs = [NetworkConfig(0, 1000, Point(75.0), Uniform(20, 180), BarabasiAlbert(6.0)),
                NetworkConfig(1, 1000, Point(75.0), Uniform(20, 180), ErdosRenyi(8.0))]
        pops = self._check(cfgs, AttackSpec((0.75, 0.2)), CouplingMatrix.two_net(0.5, 0.5), 7)
        assert all(p.alive_count == 0 for p in pops)


# Reference local step: the per-pair expansion with np.add.at scatters that
# mc_step_local replaced. The fast step must reproduce it bit for bit.
def _reference_flat_neighbors(graph, nodes):
    starts = graph.indptr[nodes]
    lens = graph.indptr[nodes + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    owner = np.repeat(np.arange(nodes.size), lens)
    cum = np.cumsum(lens) - lens
    pos = np.arange(total) - cum[owner] + starts[owner]
    return graph.indices[pos], owner


def reference_step_local(pops, newly_dead, coupling):
    n = len(pops)
    bufs = [np.zeros(p.load.size) for p in pops]
    loose = [0.0] * n  # shares falling back to network-wide redistribution

    for i in range(n):
        dead = newly_dead[i]
        if dead.size == 0:
            continue
        carried = pops[i].load[dead] + pops[i].received[dead]
        for j in range(n):
            frac = coupling.entry(i, j)
            if frac == 0.0:
                continue
            shares = carried * frac
            pop_j = pops[j]
            if i == j:
                if pop_j.graph is None:
                    loose[j] += float(shares.sum())
                    continue
                nbrs, owner = _reference_flat_neighbors(pop_j.graph, dead)
                live = pop_j.alive[nbrs]
                counts = np.bincount(owner[live], minlength=dead.size)
                placeable = counts > 0
                per = np.zeros(dead.size)
                per[placeable] = shares[placeable] / counts[placeable]
                np.add.at(bufs[j], nbrs[live], per[owner[live]])
                loose[j] += float(shares[~placeable].sum())
            else:
                # Paired node (same index) plus its live neighbors.
                if pop_j.graph is None:
                    loose[j] += float(shares.sum())
                    continue
                paired_alive = pop_j.alive[dead]
                nbrs, owner = _reference_flat_neighbors(pop_j.graph, dead)
                live = pop_j.alive[nbrs]
                counts = np.bincount(owner[live], minlength=dead.size).astype(float)
                counts += paired_alive
                placeable = counts > 0
                per = np.zeros(dead.size)
                per[placeable] = shares[placeable] / counts[placeable]
                np.add.at(bufs[j], nbrs[live], per[owner[live]])
                sel = paired_alive & placeable
                np.add.at(bufs[j], dead[sel], per[sel])
                loose[j] += float(shares[~placeable].sum())

    # Network-wide fallbacks; re-rope to the other side when a network is empty.
    live_counts = [p.alive_count for p in pops]
    stranded = 0.0
    for k in range(n):
        if loose[k] == 0.0:
            continue
        if live_counts[k] > 0:
            bufs[k][pops[k].alive] += loose[k] / live_counts[k]
        else:
            stranded += loose[k]
    if stranded > 0.0:
        total_live = sum(live_counts)
        if total_live == 0:
            pass  # breakdown; load has nowhere to go
        else:
            for k in range(n):
                if live_counts[k] > 0:
                    bufs[k][pops[k].alive] += stranded / total_live

    next_dead: list[np.ndarray] = []
    next_pools: list[float] = []
    for k, pop in enumerate(pops):
        pop.received += bufs[k]
        newly = pop.alive & (pop.received > pop.space)
        idx = np.nonzero(newly)[0]
        pop.alive[idx] = False
        next_dead.append(idx)
        next_pools.append(float((pop.load[idx] + pop.received[idx]).sum()))
    return next_dead, next_pools


def isolate(graph: Graph, nodes) -> Graph:
    """`graph` without any edge touching `nodes`."""
    u = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
    v = graph.indices
    keep = (u < v) & ~np.isin(u, nodes) & ~np.isin(v, nodes)
    return _edges_to_csr(graph.node_count, u[keep], v[keep])


class TestLocalStepOracle:
    N = 120

    def _state(self, rng, graphs, dead_frac, empty=()):
        pops, newly_dead = [], []
        for k, g in enumerate(graphs):
            alive = rng.random(self.N) >= dead_frac
            if k in empty:
                alive[:] = False
            pops.append(NodePopulation(load=rng.uniform(10, 100, self.N),
                                       space=rng.uniform(20, 180, self.N), alive=alive,
                                       received=rng.uniform(0, 40, self.N), graph=g))
            dead = np.flatnonzero(~alive)
            newly_dead.append(np.sort(rng.choice(dead, rng.integers(0, dead.size + 1),
                                                 replace=False)))
        # A node of network 0 that dies with all of its neighbors.
        g0 = graphs[0]
        if g0 is not None:
            v = int(np.argmax(np.diff(g0.indptr)))
            pops[0].alive[g0.neighbors(v)] = False
            pops[0].alive[v] = False
            newly_dead[0] = np.union1d(newly_dead[0], np.append(g0.neighbors(v), v))
        return pops, newly_dead

    @staticmethod
    def _coupling(rng, n):
        m = rng.dirichlet(np.ones(n), size=n)
        m[rng.random((n, n)) < 0.3] = 0.0
        m[np.arange(n), rng.integers(0, n, n)] += 1e-3  # no all-zero row
        return CouplingMatrix.from_array(m / m.sum(axis=1, keepdims=True))

    def _compare(self, graphs, dead_frac, empty=(), coupling=None):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            pops, newly_dead = self._state(rng, graphs, dead_frac, empty)
            matrix = self._coupling(rng, len(graphs)) if coupling is None else coupling
            ref_pops = copy.deepcopy(pops)
            ref_dead = [d.copy() for d in newly_dead]
            for _ in range(50):
                newly_dead, pools = mc_step_local(pops, newly_dead, matrix)
                ref_dead, ref_pools = reference_step_local(ref_pops, ref_dead, matrix)
                assert pools == ref_pools
                for got, want, p, q in zip(newly_dead, ref_dead, pops, ref_pops):
                    assert np.array_equal(got, want)
                    assert np.array_equal(p.received, q.received)
                    assert np.array_equal(p.alive, q.alive)
                if all(d.size == 0 for d in newly_dead):
                    break

    def test_er_and_ba_with_isolated_nodes(self):
        er = generate_graph(ErdosRenyi(1.5), self.N, seed=4)
        assert np.any(np.diff(er.indptr) == 0)
        ba = isolate(generate_graph(BarabasiAlbert(4.0), self.N, seed=5), [3, 50, 51, 90])
        self._compare([er, ba], 0.3)
        self._compare([ba, er], 0.3)

    def test_mostly_dead_neighborhoods(self):
        g = generate_graph(ErdosRenyi(4.0), self.N, seed=6)
        self._compare([g, g], 0.8)

    def test_target_network_without_survivors(self):
        a = generate_graph(ErdosRenyi(6.0), self.N, seed=7)
        b = generate_graph(BarabasiAlbert(6.0), self.N, seed=8)
        self._compare([a, b], 0.4, empty=(1,))
        self._compare([a, b], 0.4, empty=(0,))

    def test_complete_network_beside_graph(self):
        g = generate_graph(ErdosRenyi(6.0), self.N, seed=9)
        self._compare([None, g], 0.4)
        self._compare([g, None], 0.4)

    def test_three_networks(self):
        gs = [generate_graph(ErdosRenyi(d), self.N, seed=10 + int(d)) for d in (3.0, 6.0, 9.0)]
        self._compare(gs, 0.4)
        self._compare([gs[0], None, gs[2]], 0.5, empty=(2,))

    def test_fcc_matrices_with_zero_entries(self):
        g = generate_graph(ErdosRenyi(6.0), self.N, seed=11)
        h = generate_graph(BarabasiAlbert(6.0), self.N, seed=12)
        for alpha, beta in ((1.0, 1.0), (0.0, 0.0), (1.0, 0.3), (0.4, 1.0)):
            self._compare([g, h], 0.4, coupling=CouplingMatrix.two_net(alpha, beta))


# Reference complete step: the boolean-mask step that mc_step_complete
# replaced. The fast step must reproduce it bit for bit.
def reference_step_complete(pops, pools, coupling):
    live = [p.alive_count > 0 for p in pops]
    for i, pool in enumerate(pools):
        if pool < 0:
            raise SimulationError(f"negative pool for network {i}")
    recv = _routed_inbound(pools, coupling, live)
    next_pools = [0.0] * len(pops)
    for k, pop in enumerate(pops):
        if not live[k]:
            next_pools[k] = recv[k]  # passes through next step
            continue
        if recv[k] == 0.0:
            continue
        count = pop.alive_count
        q_prev = pop.received[pop.alive][0] if count else 0.0
        inc = recv[k] / count
        q_new = q_prev + inc
        newly = pop.alive & (pop.space < q_new)
        pop.received[pop.alive] = q_new
        pop.alive &= ~newly
        n_dead = int(np.count_nonzero(newly))
        next_pools[k] = float(pop.load[newly].sum()) + n_dead * q_new
    return next_pools


class TestCompleteStepOracle:
    """Cascades from random complete-graph states: survivors of a network
    share one cumulative load, dead nodes hold arbitrary stale values."""

    N = 400
    # Point, Uniform and ShiftedExponential loads over both free-space laws.
    UNIFORM_SPACE = [
        NetworkConfig(0, N, Point(75.0), Uniform(20, 180)),
        NetworkConfig(1, N, Uniform(50, 100), Uniform(40, 280)),
        NetworkConfig(2, N, ShiftedExponential(30.0, 1 / 40.0), Uniform(20, 180))]
    EXPONENTIAL_SPACE = [
        NetworkConfig(0, N, Point(60.0), ShiftedExponential(20.0, 1 / 120.0)),
        NetworkConfig(1, N, Uniform(40, 80), ShiftedExponential(20.0, 1 / 120.0))]

    def _state(self, rng, cfgs, dead_frac, empty=(), idle=(), shared=True):
        pops, pools = [], []
        for k, cfg in enumerate(cfgs):
            pop = sample_population(cfg, rng)
            pop.alive[:] = rng.random(self.N) >= dead_frac
            if k in empty:
                pop.alive[:] = False
            pop.received[:] = rng.uniform(0, 40, self.N)
            if shared:
                pop.received[pop.alive] = rng.uniform(0, 20)
            pops.append(pop)
            pools.append(0.0 if k in idle else float(rng.uniform(0, 30 * self.N)))
        return pops, pools

    def _compare(self, cfgs, strategy, dead_frac=0.3, empty=(), idle=(), shared=True):
        attack = AttackSpec((0.0,) * len(cfgs))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            pops, pools = self._state(rng, cfgs, dead_frac, empty, idle, shared)
            ref_pops, ref_pools = copy.deepcopy(pops), list(pools)
            for t in range(100):
                if all(pl <= 0 for pl in pools) or all(p.alive_count == 0 for p in pops):
                    break
                views = _empirical_views(cfgs, attack, pops, pools, True)
                matrix = decide(strategy, views, t).matrix
                pools = mc_step_complete(pops, pools, matrix)
                ref_pools = reference_step_complete(ref_pops, ref_pools, matrix)
                assert pools == ref_pools
                for p, q in zip(pops, ref_pops):
                    assert np.array_equal(p.alive, q.alive)
                    assert np.array_equal(p.received[p.alive], q.received[q.alive])
            else:
                raise AssertionError("cascade did not settle")

    def test_two_networks_sbd_and_swo(self):
        for cfgs in (self.UNIFORM_SPACE[:2], self.EXPONENTIAL_SPACE):
            for strategy in (SBD(), SWO()):
                self._compare(cfgs, strategy)

    def test_three_networks_sbd_and_swo(self):
        for strategy in (SBD(), SWO()):
            self._compare(self.UNIFORM_SPACE, strategy, dead_frac=0.5)

    def test_network_emptied_by_attack_passes_load_through(self):
        for strategy in (SBD(), SWO(), FCC(CouplingMatrix.two_net(0.7, 0.2))):
            self._compare(self.UNIFORM_SPACE[:2], strategy, empty=(0,))
            self._compare(self.EXPONENTIAL_SPACE, strategy, empty=(1,))
        self._compare(self.UNIFORM_SPACE, SBD(), empty=(1,))

    def test_network_with_zero_inbound_load(self):
        # alpha = 1 keeps A's pool home, beta = 1 gives B nothing to send.
        self._compare(self.UNIFORM_SPACE[:2], FCC(CouplingMatrix.two_net(1.0, 1.0)), idle=(1,))
        self._compare(self.UNIFORM_SPACE[:2], FCC(CouplingMatrix.two_net(0.0, 0.0)), idle=(0,))

    def test_fcc_matrices_with_zero_entries(self):
        for alpha, beta in ((1.0, 1.0), (0.0, 0.0), (1.0, 0.3), (0.4, 1.0), (0.4, 0.9)):
            fcc = FCC(CouplingMatrix.two_net(alpha, beta))
            self._compare(self.UNIFORM_SPACE[:2], fcc)
            self._compare(self.EXPONENTIAL_SPACE, fcc)

    def test_reads_first_survivor(self):
        # Survivors holding different loads pin which one the step reads.
        self._compare(self.UNIFORM_SPACE[:2], SBD(), shared=False)

    def test_free_space_equal_to_load_survives(self):
        # Every survivor reaches exactly its free space: none may fail.
        cfgs = [NetworkConfig(0, 10, Point(10.0), Point(50.0)),
                NetworkConfig(1, 10, Point(10.0), Point(50.0))]
        for step in (mc_step_complete, reference_step_complete):
            pops = [sample_population(c, np.random.default_rng(0)) for c in cfgs]
            for pop in pops:
                pop.alive[:4] = False
                pop.received[pop.alive] = 40.0
            pools = step(pops, [60.0, 60.0], CouplingMatrix.two_net(1.0, 1.0))
            assert pools == [0.0, 0.0]
            assert all(p.alive_count == 6 for p in pops)
            assert all(np.all(p.received[p.alive] == 50.0) for p in pops)


def test_survivor_mean_load_matches_mask_gather():
    # Local-mode states: survivors hold different loads, so q_cum is a real mean.
    n = 1000
    cfgs = [NetworkConfig(k, n, Point(75.0), Uniform(20, 180), ErdosRenyi(6.0))
            for k in range(2)]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pops = [sample_population(c, rng) for c in cfgs]
        for pop in pops:
            pop.alive[:] = rng.random(n) >= rng.uniform(0.05, 0.95)
            pop.received[:] = rng.exponential(30.0, n)
        want = [float(p.received[p.alive].mean()) for p in pops]
        views = _empirical_views(cfgs, AttackSpec((0.3, 0.0)), pops, [1.0, 1.0], True)
        traj = []
        _record(traj, 0, cfgs, pops, [1.0, 1.0])
        assert [v.q_cum for v in views] == want
        assert list(traj[0].q_cum) == want


class TestFixedCouplingDecidedOnce:
    """FCC asks `decide` on the first step that routes load and reuses that
    matrix. Outcomes are those of deciding on every step."""

    COMPLETE = [NetworkConfig(0, 2000, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 2000, Uniform(50, 100), Uniform(40, 280))]
    LOCAL = [NetworkConfig(0, 500, Point(75.0), Uniform(20, 180), ErdosRenyi(6.0)),
             NetworkConfig(1, 500, Point(75.0), Uniform(20, 180), BarabasiAlbert(6.0))]
    # (system, alpha, beta, attack) -> (final fractions, steps), recorded
    # when `decide` still ran on every step.
    CASES = [(COMPLETE, 0.0, 0.0, (0.5, 0.2), (0.387, 0.7105), 15),
             (COMPLETE, 0.4, 0.9, (0.5, 0.2), (0.427, 0.708), 11),
             (COMPLETE, 1.0, 0.3, (0.3, 0.0), (0.0, 0.0), 19),
             (COMPLETE, 0.5, 0.5, (1.0, 0.0), (0.0, 0.0), 7),
             (LOCAL, 0.0, 0.0, (0.3, 0.0), (0.666, 0.914), 9),
             (LOCAL, 0.4, 0.9, (0.3, 0.0), (0.692, 0.976), 4),
             (LOCAL, 1.0, 1.0, (0.3, 0.0), (0.0, 0.0), 10)]

    @staticmethod
    def _count(monkeypatch) -> list:
        calls = []

        def counting(strategy, views, t):
            calls.append(t)
            return decide(strategy, views, t)

        monkeypatch.setattr(montecarlo, "decide", counting)
        return calls

    def test_one_decision_per_run(self, monkeypatch):
        calls = self._count(monkeypatch)
        for cfgs, alpha, beta, attack, fractions, steps in self.CASES:
            calls.clear()
            out = mc_run(cfgs, AttackSpec(attack), FCC(CouplingMatrix.two_net(alpha, beta)),
                         seed=7)
            assert (out.final_fractions, out.steps) == (fractions, steps)
            assert calls == [0]

    def test_no_decision_without_load_to_route(self, monkeypatch):
        calls = self._count(monkeypatch)
        # A zero attack routes nothing, so even a wrong-size matrix passes.
        out = mc_run(self.COMPLETE, AttackSpec((0.0, 0.0)), FCC(CouplingMatrix.identity(3)),
                     seed=7)
        assert out.final_fractions == (1.0, 1.0) and out.steps == 0 and calls == []
        with pytest.raises(StrategyError):
            mc_run(self.COMPLETE, AttackSpec((0.3, 0.0)), FCC(CouplingMatrix.identity(3)),
                   seed=7)


class TestDeterminism:
    CFGS = [NetworkConfig(0, 3000, Point(75.0), Uniform(20, 180)),
            NetworkConfig(1, 3000, Point(75.0), Uniform(40, 280))]

    def test_same_seed_same_outcome(self):
        a = mc_run(self.CFGS, AttackSpec((0.5, 0.0)), SBD(), seed=11)
        b = mc_run(self.CFGS, AttackSpec((0.5, 0.0)), SBD(), seed=11)
        assert a.final_fractions == b.final_fractions
        assert a.steps == b.steps

    def test_different_seed_differs(self):
        a = mc_run(self.CFGS, AttackSpec((0.5, 0.0)), SBD(), seed=11)
        b = mc_run(self.CFGS, AttackSpec((0.5, 0.0)), SBD(), seed=12)
        assert a.final_fractions != b.final_fractions

    def test_generated_graphs_match_graph_cache(self):
        # mc_run builds its own graphs from the same seed rule as GraphCache
        cfgs = [NetworkConfig(k, 2000, Point(75.0), Uniform(20, 180), ErdosRenyi(10.0))
                for k in range(2)]
        for seed in (0, 1):
            own = mc_run(cfgs, AttackSpec((0.5, 0.0)), SBD(), seed=seed)
            cached = mc_run(cfgs, AttackSpec((0.5, 0.0)), SBD(), seed=seed,
                            graphs=GraphCache(cfgs).graphs(seed))
            assert own == cached


class TestLocalMatchesGlobal:
    def test_complete_adjacency_reproduces_global_redistribution(self):
        n = 100
        g = complete_graph(n)
        load, space = Point(75.0), Uniform(20, 180)
        global_cfgs = [NetworkConfig(0, n, load, space),
                       NetworkConfig(1, n, load, space)]
        local_cfgs = [NetworkConfig(0, n, load, space, EdgeListTopology("unused")),
                      NetworkConfig(1, n, load, space, EdgeListTopology("unused"))]
        for seed in (0, 1, 2):
            ref = mc_run(global_cfgs, AttackSpec((0.45, 0.0)), SBD(), seed=seed)
            loc = mc_run(local_cfgs, AttackSpec((0.45, 0.0)), SBD(), seed=seed,
                         graphs=[g, g])
            assert loc.final_fractions == pytest.approx(ref.final_fractions, abs=0.02)


# Reference CSR construction: the stable argsort that _edges_to_csr's keyed
# sort replaced. The fast build must reproduce it bit for bit.
def reference_csr(node_count, u, v):
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, dst[order].astype(np.int64)


# Reference BA generator: the per-edge construction that _barabasi_albert
# replaced, kept verbatim. The fast generator must give the same graph.
def reference_barabasi_albert(node_count: int, mean_degree: float, rng: np.random.Generator) -> Graph:
    m = max(1, math.ceil(mean_degree / 2.0))
    m0 = m + 1
    if node_count <= m0:
        raise SimulationError("node_count too small for the requested mean degree")
    clique_u, clique_v = np.triu_indices(m0, k=1)
    n_clique = clique_u.size
    total_edges = n_clique + (node_count - m0) * m
    us = np.empty(total_edges, dtype=np.int64)
    vs = np.empty(total_edges, dtype=np.int64)
    us[:n_clique], vs[:n_clique] = clique_u, clique_v
    # Endpoint list: sampling from it is degree-proportional attachment.
    endpoints = np.empty(2 * total_edges, dtype=np.int64)
    endpoints[0:2 * n_clique:2] = clique_u
    endpoints[1:2 * n_clique:2] = clique_v
    fill = 2 * n_clique
    e = n_clique
    for v in range(m0, node_count):
        targets: set[int] = set()
        while len(targets) < m:
            cand = endpoints[rng.integers(0, fill, size=m - len(targets))]
            targets.update(int(c) for c in cand)
        for t in targets:
            us[e], vs[e] = v, t
            endpoints[fill] = v
            endpoints[fill + 1] = t
            fill += 2
            e += 1
    return _edges_to_csr(node_count, us, vs)


class TestGraphs:
    @pytest.mark.parametrize("n,edges", [(1, 0), (7, 0), (4, 5), (40, 60), (2000, 30_000)])
    def test_edges_to_csr_matches_stable_argsort(self, n, edges):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            # Ids come from the lower half, so the upper half is isolated.
            u, v = rng.integers(0, max(1, n // 2), size=(2, edges), dtype=np.int64)
            if edges:
                # Repeat a third of the edges, in both orientations, and add
                # a self-loop.
                k = edges // 3
                u, v = np.r_[u, u[:k], v[:k], 0], np.r_[v, v[:k], u[:k], 0]
            got = _edges_to_csr(n, u, v)
            indptr, indices = reference_csr(n, u, v)
            assert got.indptr.dtype == got.indices.dtype == np.int64
            assert np.array_equal(got.indptr, indptr)
            assert np.array_equal(got.indices, indices)

    def test_edges_to_csr_rejects_sort_key_overflow(self):
        with pytest.raises(SimulationError, match="overflow"):
            _edges_to_csr(2 ** 62, np.array([0]), np.array([1]))

    @pytest.mark.parametrize("n", [50, 2000])
    @pytest.mark.parametrize("degree", [1.0, 3.0, 7.5, 20.0])
    def test_barabasi_albert_matches_per_edge_construction(self, n, degree):
        for seed in range(3):
            want = reference_barabasi_albert(n, degree, np.random.default_rng(seed))
            got = generate_graph(BarabasiAlbert(degree), n, seed)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)

    def test_erdos_renyi_mean_degree(self):
        g = generate_graph(ErdosRenyi(40.0), 2000, seed=5)
        assert 2.0 * g.edge_count / g.node_count == pytest.approx(40.0, abs=0.5)

    def test_erdos_renyi_no_self_or_duplicate_edges(self):
        g = generate_graph(ErdosRenyi(10.0), 500, seed=9)
        for v in range(g.node_count):
            nbrs = g.neighbors(v)
            assert v not in nbrs
            assert len(set(nbrs.tolist())) == nbrs.size

    def test_barabasi_albert_heavy_tail(self):
        g = generate_graph(BarabasiAlbert(8.0), 20_000, seed=2)
        deg = np.diff(g.indptr)
        assert 2.0 * g.edge_count / g.node_count == pytest.approx(8.0, rel=0.15)
        # complementary CDF of the degree distribution should decay roughly
        # like k^-2 (degree exponent near 3)
        ks = np.unique(deg[deg >= 8])
        ccdf = np.array([(deg >= k).mean() for k in ks])
        keep = ccdf > 5.0 / g.node_count
        slope = np.polyfit(np.log(ks[keep]), np.log(ccdf[keep]), 1)[0]
        assert -2.8 <= slope <= -1.2

    def test_edge_list_round_trip(self, tmp_path):
        g = generate_graph(ErdosRenyi(6.0), 200, seed=1)
        path = tmp_path / "edges.txt"
        write_edge_list(g, str(path))
        g2 = read_edge_list(str(path), 200)
        assert g2.edge_count == g.edge_count
        for v in range(200):
            assert sorted(g2.neighbors(v).tolist()) == sorted(g.neighbors(v).tolist())

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    def test_edge_list_of_comments_only_is_empty(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# no edges\n\n# at all\n")
        g = read_edge_list(str(path), 3)
        assert g.indptr.tolist() == [0, 0, 0, 0]
        assert g.indices.size == 0 and g.indices.dtype == np.int64

    @pytest.mark.parametrize("line", ["-1 2", "1 5"])
    def test_edge_list_rejects_out_of_range_ids(self, tmp_path, line):
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1\n# comment\n\n{line}\n2 3\n")
        with pytest.raises(SimulationError, match=r"edges\.txt, line 4"):
            read_edge_list(str(path), 4)

    @pytest.mark.parametrize("n,degree", [(30, 25.0), (60, 20.0), (200, 6.0)])
    def test_erdos_renyi_matches_unique_construction(self, n, degree):
        # The sampler de-duplicates with a sort; it must give the graph the
        # np.unique construction gives from the same draws.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            total = n * (n - 1) // 2
            m = int(rng.binomial(total, degree / (n - 1)))
            picked = np.empty(0, dtype=np.int64)
            while picked.size < m:
                extra = rng.integers(0, total, size=int((m - picked.size) * 1.2) + 16,
                                     dtype=np.int64)
                picked = np.unique(np.concatenate([picked, extra]))
            if picked.size > m:
                picked = rng.permutation(picked)[:m]
            want = _edges_to_csr(n, *_pair_from_index(picked, n))
            got = generate_graph(ErdosRenyi(degree), n, seed)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)

    def test_pair_index_inversion(self):
        n = 50
        k = np.arange(n * (n - 1) // 2, dtype=np.int64)
        i, j = _pair_from_index(k, n)
        assert (i < j).all() and (j < n).all() and (i >= 0).all()
        back = i * (2 * n - i - 1) // 2 + (j - i - 1)
        assert np.array_equal(back, k)


class TestAttack:
    def test_exact_victim_count_and_pool(self):
        cfg = NetworkConfig(0, 1000, Uniform(50, 100), Uniform(20, 180))
        rng = np.random.default_rng(0)
        pop = sample_population(cfg, rng)
        victims, pool = apply_attack(pop, 0.37, rng)
        assert victims.size == 370
        assert pop.alive_count == 630
        assert pool == pytest.approx(float(pop.load[victims].sum()))

    def test_out_of_range_rejected(self):
        cfg = NetworkConfig(0, 10, Point(1.0), Point(1.0))
        pop = sample_population(cfg, np.random.default_rng(0))
        with pytest.raises(SimulationError):
            apply_attack(pop, 1.5, np.random.default_rng(0))


def test_trajectory_records_attack_at_t0():
    cfgs = [NetworkConfig(0, 500, Point(75.0), Uniform(20, 180)),
            NetworkConfig(1, 500, Point(75.0), Uniform(20, 180))]
    out = mc_run(cfgs, AttackSpec((0.3, 0.1)), SBD(), seed=4, record_trajectory=True)
    assert out.trajectory[0].f == pytest.approx((0.3, 0.1))
    assert out.trajectory[0].total_extra[0] == pytest.approx(150 * 75.0)
