"""Coupling strategies: SBD splitting, SWO quadratic solve, dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascnet.core import CouplingMatrix
from cascnet.distributions import ShiftedExponential, Uniform
from cascnet.strategies import (FCC, SBD, SWO, NetView, StrategyError,
                                decide, multinet_objective, sbd_coefficients,
                                swo_build_uniform, swo_model_objective,
                                swo_objective_general, swo_solve_box,
                                swo_solve_grid, swo_solve_multinet)


def make_view(n_alive=5e5, pool=1e7, q_cum=10.0, attack_frac=0.3,
              node_count=1e6, load_mean=75.0, space=Uniform(20, 180)):
    frac_failed = 1.0 - n_alive / node_count
    return NetView(n_alive=n_alive, pool=pool, q_cum=q_cum, q_step=0.0,
                   frac_failed=frac_failed, attack_frac=attack_frac,
                   node_count=node_count, load_mean=load_mean, space_dist=space)


def random_views(rng):
    views = []
    for _ in range(2):
        p = rng.uniform(0.0, 0.8)
        sf = rng.uniform(0.05, 1.0)
        lo, width = rng.uniform(0, 50), rng.uniform(50, 300)
        q = lo + (1.0 - sf) * width
        views.append(make_view(
            n_alive=(1.0 - p) * sf * 1e6, pool=rng.uniform(0, 5e7),
            q_cum=q, attack_frac=p, space=Uniform(lo, lo + width)))
    return views


class TestSbd:
    def test_coefficients_proportional_to_survivors(self):
        assert sbd_coefficients(3e5, 1e5) == (0.75, 0.25)
        with pytest.raises(StrategyError):
            sbd_coefficients(0.0, 0.0)

    def test_matrix_rows_identical(self):
        views = [make_view(n_alive=3e5), make_view(n_alive=1e5)]
        m = decide(SBD(), views, 1).matrix.as_array()
        assert np.allclose(m, [[0.75, 0.25], [0.75, 0.25]])

    def test_equalizes_per_survivor_increment(self):
        views = [make_view(n_alive=3e5, pool=2e7), make_view(n_alive=1e5, pool=5e6)]
        m = decide(SBD(), views, 1).matrix.as_array()
        pools = np.array([v.pool for v in views])
        u = (m.T @ pools) / np.array([v.n_alive for v in views])
        assert u[0] == pytest.approx(u[1])


class TestFcc:
    def test_fixed_matrix_returned_verbatim(self):
        cm = CouplingMatrix.two_net(0.4, 0.9)
        dec = decide(FCC(cm), [make_view(), make_view()], 3)
        assert dec.matrix is cm

    def test_invalid_matrix_rejected_at_construction(self):
        bad = CouplingMatrix(((0.7, 0.7), (0.5, 0.5)))
        with pytest.raises(Exception):
            FCC(bad)

    def test_size_mismatch(self):
        with pytest.raises(StrategyError):
            decide(FCC(CouplingMatrix.identity(3)), [make_view(), make_view()], 0)


class TestSwoQuadratic:
    def test_quadratic_matches_model_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            views = random_views(rng)
            coeffs = swo_build_uniform(views)
            for a, b in [(0, 0), (1, 1), (0.3, 0.8), (rng.uniform(), rng.uniform())]:
                assert coeffs.value(a, b) == pytest.approx(
                    swo_model_objective(a, b, views), rel=1e-9, abs=1e-6)

    def test_model_matches_exact_inside_support(self):
        # windows fully inside the uniform support: the closed form, the
        # model form, and the exact survival-function form all agree
        views = [make_view(q_cum=40.0, pool=5e6, space=Uniform(20, 180)),
                 make_view(q_cum=50.0, pool=4e6, space=Uniform(20, 180))]
        for a, b in [(0.2, 0.9), (0.5, 0.5), (1.0, 0.0)]:
            exact = swo_objective_general(a, b, views)
            assert swo_model_objective(a, b, views) == pytest.approx(exact, rel=1e-9)
            assert swo_build_uniform(views).value(a, b) == pytest.approx(exact, rel=1e-9)

    def test_requires_uniform_spaces(self):
        views = [make_view(space=ShiftedExponential(10.0, 0.05)), make_view()]
        with pytest.raises(StrategyError):
            swo_build_uniform(views)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_hessian_always_psd(self, seed):
        coeffs = swo_build_uniform(random_views(np.random.default_rng(seed)))
        assert coeffs.is_psd()
        h = coeffs.hessian()
        assert np.linalg.det(h) >= -1e-6 * max(abs(h).max(), 1.0) ** 2


class TestSwoSolve:
    def test_box_solution_beats_fine_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            views = random_views(rng)
            coeffs = swo_build_uniform(views)
            a, b, val = swo_solve_box(coeffs)
            grid = np.linspace(0.0, 1.0, 101)
            aa, bb = np.meshgrid(grid, grid, indexing="ij")
            grid_best = float(np.min(coeffs.value(aa, bb)))
            assert val <= grid_best + 1e-9 * max(abs(grid_best), 1.0)
            assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0

    def test_box_respects_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            coeffs = swo_build_uniform(random_views(rng))
            a, b, _ = swo_solve_box(coeffs, ((0.3, 0.6), (0.5, 0.5)))
            assert 0.3 <= a <= 0.6
            assert b == 0.5

    def test_grid_solver_agrees_with_box_on_quadratic(self):
        views = [make_view(q_cum=40.0, pool=5e6), make_view(q_cum=50.0, pool=4e6)]
        a_box, b_box, v_box = swo_solve_box(swo_build_uniform(views))
        a_g, b_g, v_g = swo_solve_grid(views, 0.01, objective=swo_model_objective)
        assert v_box <= v_g + 1e-6 * max(abs(v_g), 1.0)
        assert abs(a_g - a_box) <= 0.011 and abs(b_g - b_box) <= 0.011


class TestSwoDecision:
    def test_dominates_fixed_couplings(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            views = random_views(rng)
            dec = decide(SWO(), views, 1)
            m = dec.matrix.as_array()
            assert m.shape == (2, 2)
            # the decision minimizes the decision-time model objective
            best = swo_model_objective(m[0, 0], m[1, 1], views)
            for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                for b in (0.0, 0.5, 1.0):
                    rival = swo_model_objective(a, b, views)
                    assert best <= rival + 1e-6 * max(abs(rival), 1.0)

    def test_bounds_respected(self):
        views = [make_view(), make_view(n_alive=2e5, pool=3e7)]
        dec = decide(SWO(bounds=((0.3, 0.7), (0.1, 0.4))), views, 1)
        m = dec.matrix.as_array()
        assert 0.3 <= m[0, 0] <= 0.7
        assert 0.1 <= m[1, 1] <= 0.4

    def test_matches_sbd_increments_on_identical_networks(self):
        # the objective is flat along alpha == beta, so the chosen matrix may
        # differ from SBD's, but the per-survivor increments must coincide
        views = [make_view(), make_view()]
        pools = np.array([v.pool for v in views])
        alive = np.array([v.n_alive for v in views])
        swo = decide(SWO(), views, 1).matrix.as_array()
        sbd = decide(SBD(), views, 1).matrix.as_array()
        assert np.allclose((swo.T @ pools) / alive, (sbd.T @ pools) / alive)

    def test_all_dead_yields_identity(self):
        views = [make_view(n_alive=0.0), make_view(n_alive=0.0)]
        dec = decide(SWO(), views, 5)
        assert np.allclose(dec.matrix.as_array(), np.eye(2))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(StrategyError):
            SWO(bounds=((0.8, 0.2),))
        with pytest.raises(StrategyError):
            SWO(bounds=((-0.1, 0.5),))


class TestMultinet:
    def test_two_network_case_matches_dedicated_solver(self):
        rng = np.random.default_rng(42)
        for _ in range(2):
            views = random_views(rng)
            full = swo_solve_multinet(views)
            two = decide(SWO(), views, 1).matrix
            assert multinet_objective(full, views) <= multinet_objective(two, views) * (1 + 1e-4)

    def test_symmetric_three_network_solution(self):
        views = [make_view(), make_view(), make_view()]
        m = swo_solve_multinet(views).as_array()
        assert np.allclose(m, m[0], atol=1e-6)  # all rows identical
        assert np.allclose(m[0], [1 / 3] * 3, atol=1e-6)

    def test_rows_stochastic_and_bounded(self):
        rng = np.random.default_rng(5)
        views = [make_view(n_alive=rng.uniform(1e5, 9e5),
                           pool=rng.uniform(1e6, 4e7),
                           q_cum=rng.uniform(20, 100)) for _ in range(4)]
        m = swo_solve_multinet(views, bounds=(0.05, 0.9)).as_array()
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)
        assert (m >= 0.05 - 1e-9).all() and (m <= 0.9 + 1e-9).all()


def quad_objective(row, views):
    """The solver's model: sum of c_k * u_k * (E[L_k] + q_k + u_k) over live
    networks inside their support, for identical matrix rows `row` (or a
    stack of candidate rows)."""
    total_pool = sum(v.pool for v in views)
    value = 0.0
    for k, v in enumerate(views):
        sd = v.space_dist
        if v.n_alive <= 0 or v.q_cum >= sd.hi:
            continue
        u = row[..., k] * total_pool / v.n_alive
        c = (1.0 - v.attack_frac) * v.node_count / (sd.hi - sd.lo)
        value += c * u * (v.load_mean + v.q_cum + u)
    return value


def random_multinet_views(rng, n):
    """Live networks mixed with the solver's corner cases: a dead network,
    one past the top of its support, one with nothing to redistribute."""
    views = []
    for _ in range(n):
        lo, width = rng.uniform(0, 50), rng.uniform(50, 300)
        p = rng.uniform(0.0, 0.8)
        kind = rng.choice(["live", "live", "dead", "saturated", "no_pool"])
        n_alive = (1.0 - p) * rng.uniform(0.05, 1.0) * 1e6
        q = rng.uniform(lo, lo + width)
        pool = rng.uniform(0, 5e7)
        if kind == "dead":
            n_alive = 0.0
            q = q if rng.random() < 0.5 else np.inf
        elif kind == "saturated":
            q = lo + width + rng.uniform(0, 20)
        elif kind == "no_pool":
            pool = 0.0
        views.append(make_view(n_alive=n_alive, pool=pool, q_cum=q, attack_frac=p,
                               space=Uniform(lo, lo + width)))
    return views


class TestWaterFilling:
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.05, 0.9)])
    def test_row_stochastic_bounded_and_no_worse_than_sbd(self, bounds):
        rng = np.random.default_rng(11)
        lo, hi = bounds
        for _ in range(200):
            views = random_multinet_views(rng, int(rng.integers(3, 6)))
            if all(v.n_alive <= 0 for v in views):
                continue
            m = swo_solve_multinet(views, bounds).as_array()
            assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)
            assert m.min() >= lo and m.max() <= hi
            assert np.all(m == m[0])
            alive = np.array([v.n_alive for v in views])
            sbd = alive / alive.sum()
            if sbd.min() >= lo and sbd.max() <= hi:
                best = quad_objective(sbd, views)
                assert quad_objective(m[0], views) <= best + 1e-12 * max(1.0, best)

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.05, 0.9)])
    def test_three_networks_beat_fine_grid(self, bounds):
        rng = np.random.default_rng(12)
        lo, hi = bounds
        axis = np.arange(lo, hi + 1e-9, 0.005)
        x0, x1 = np.meshgrid(axis, axis, indexing="ij")
        x2 = 1.0 - x0 - x1
        keep = (x2 >= lo - 1e-12) & (x2 <= hi + 1e-12)
        grid = np.stack([x0[keep], x1[keep], np.clip(x2[keep], lo, hi)], axis=1)
        for _ in range(40):
            views = random_multinet_views(rng, 3)
            if all(v.n_alive <= 0 for v in views):
                continue
            row = swo_solve_multinet(views, bounds).as_array()[0]
            best = np.min(quad_objective(grid, views))
            assert quad_objective(row, views) <= best + 1e-12 * max(1.0, best)

    def test_zero_cost_ties_fill_in_index_order(self):
        # A dead network that was sent load holds an infinite q_cum.
        dead, fed = make_view(n_alive=0.0), make_view(n_alive=0.0, q_cum=np.inf)
        m = swo_solve_multinet([make_view(), fed, dead, dead], (0.0, 0.6)).as_array()
        assert np.allclose(m[0], [0.0, 0.6, 0.4, 0.0])

    @pytest.mark.parametrize("flat", [{"pool": 0.0}, {"q_cum": 200.0}],
                             ids=["no_pool", "saturated"])
    def test_flat_objective_projects_sbd_row(self, flat):
        views = [make_view(n_alive=a, **flat) for a in (1e5, 2e5, 7e5)]
        m = swo_solve_multinet(views, (0.2, 0.5)).as_array()
        assert np.allclose(m[0], [0.2, 0.3, 0.5])

    def test_infeasible_bounds_rejected(self):
        views = [make_view(), make_view(), make_view()]
        with pytest.raises(StrategyError):
            swo_solve_multinet(views, (0.4, 1.0))
        with pytest.raises(StrategyError):
            swo_solve_multinet(views, (0.0, 0.3))

    def test_per_network_bounds_rejected_for_three_networks(self):
        views = [make_view(), make_view(), make_view()]
        strategy = SWO(bounds=((0.0, 1.0), (0.1, 0.9), (0.0, 1.0)))
        with pytest.raises(StrategyError):
            decide(strategy, views, 1)
        assert decide(SWO(bounds=((0.1, 0.9),)), views, 1).matrix.n == 3
