"""Node-level simulation: hand-traced cascades, conservation, graphs."""

import numpy as np
import pytest

from cascnet.core import (AttackSpec, BarabasiAlbert, Complete, CouplingMatrix,
                          EdgeListTopology, ErdosRenyi, NetworkConfig)
from cascnet.distributions import Point, Uniform
from cascnet.montecarlo import (Graph, SimulationError, _edges_to_csr,
                                _pair_from_index, apply_attack, generate_graph,
                                mc_run, mc_step_complete, read_edge_list,
                                sample_population, write_edge_list)
from cascnet.search import GraphCache
from cascnet.strategies import FCC, SBD


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
    def _check(self, cfgs, attack, coupling, seed, steps=200):
        rng = np.random.default_rng(seed)
        pops = [sample_population(c, rng) for c in cfgs]
        total = sum(float(p.load.sum()) for p in pops)
        pools = []
        for pop, p in zip(pops, attack.p):
            _, pool = apply_attack(pop, p, rng)
            pools.append(pool)
        for _ in range(steps):
            held = sum(float(pop.load[pop.alive].sum())
                       + float(pop.received[pop.alive].sum())
                       for pop in pops) + sum(pools)
            assert held == pytest.approx(total, rel=1e-9)
            if all(pl <= 0 for pl in pools) or all(p.alive_count == 0 for p in pops):
                break
            pools = mc_step_complete(pops, pools, coupling)

    def test_conserved_through_partial_cascade(self):
        cfgs = [NetworkConfig(0, 2000, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 2000, Point(75.0), Uniform(20, 180))]
        self._check(cfgs, AttackSpec((0.4, 0.0)), CouplingMatrix.two_net(0.6, 0.6), 3)

    def test_conserved_through_breakdown(self):
        cfgs = [NetworkConfig(0, 1000, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 1000, Point(75.0), Uniform(20, 180))]
        self._check(cfgs, AttackSpec((0.75, 0.2)), CouplingMatrix.two_net(0.5, 0.5), 7)


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


class TestGraphs:
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
