"""Coupling strategies: SBD splitting, the SWO model and solvers, dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascnet.core import CouplingMatrix
from cascnet.distributions import Point, ShiftedExponential, Uniform
from cascnet.strategies import (FCC, SBD, SWO, NetView, StrategyError,
                                _model_pool, decide, sbd_coefficients,
                                swo_objective)


def make_view(n_alive=5e5, pool=1e7, q_cum=10.0, attack_frac=0.3,
              node_count=1e6, load_mean=75.0, space=Uniform(20, 180)):
    return NetView(n_alive=n_alive, pool=pool, q_cum=q_cum, attack_frac=attack_frac,
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


def random_exponential_views(rng):
    """Two shifted-exponential networks, survivors consistent with q_cum."""
    views = []
    for _ in range(2):
        p = rng.uniform(0.0, 0.8)
        space = ShiftedExponential(rng.uniform(0, 50), 1.0 / rng.uniform(30, 200))
        q = space.shift + rng.uniform(0, 150)
        views.append(make_view(
            n_alive=(1.0 - p) * space.sf_geq(q) * 1e6, pool=rng.uniform(0, 5e7),
            q_cum=q, attack_frac=p, space=space))
    return views


def solve(views, bounds=(0.0, 1.0)) -> CouplingMatrix:
    """SWO's matrix under a single bounds pair."""
    return decide(SWO(bounds=(bounds,)), views, 1).matrix


def two_net_inbound(alpha, beta, views):
    """(r_A, r_B) under in-net coefficients alpha, beta (arrays broadcast)."""
    va, vb = views
    return (alpha * va.pool + (1.0 - beta) * vb.pool,
            (1.0 - alpha) * va.pool + beta * vb.pool)


def grid_objective(views, alphas, betas):
    """The model objective on every (alpha, beta) of a grid."""
    aa, bb = np.meshgrid(alphas, betas, indexing="ij")
    r_a, r_b = two_net_inbound(aa, bb, views)
    return _model_pool(views[0], r_a) + _model_pool(views[1], r_b)


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
            for a, b in [(0, 0), (1, 1), (0.3, 0.8), (rng.uniform(), rng.uniform())]:
                inbound = np.array(two_net_inbound(a, b, views))
                assert swo_objective(CouplingMatrix.two_net(a, b), views) == pytest.approx(
                    model_quadratic(inbound, views), rel=1e-9, abs=1e-6)

    def test_model_matches_exact_inside_support(self):
        # windows fully inside the support: the model and the exact
        # survival-function form agree, for uniform and shifted-exponential
        def exact(a, b, views):
            total = 0.0
            for v, r in zip(views, two_net_inbound(a, b, views)):
                q_new = v.q_cum + r / v.n_alive
                dead = (1.0 - v.attack_frac) * v.node_count * (
                    v.space_dist.sf_geq(v.q_cum) - v.space_dist.sf_geq(q_new))
                total += dead * (v.load_mean + q_new)
            return total

        uniform = [make_view(q_cum=40.0, pool=5e6, space=Uniform(20, 180)),
                   make_view(q_cum=50.0, pool=4e6, space=Uniform(20, 180))]
        space = ShiftedExponential(10.0, 0.02)
        expo = [make_view(n_alive=0.7 * space.sf_geq(q) * 1e6, q_cum=q, pool=pool,
                          space=space) for q, pool in ((40.0, 5e6), (90.0, 4e6))]
        for views in (uniform, expo):
            for a, b in [(0.2, 0.9), (0.5, 0.5), (1.0, 0.0)]:
                assert swo_objective(CouplingMatrix.two_net(a, b), views) == pytest.approx(
                    exact(a, b, views), rel=1e-9)

    def test_model_charges_below_support(self):
        # the exact law fails nobody while the window stays below the
        # support; the model charges anyway, so no dump looks free
        for space, q in ((Uniform(20, 180), 5.0), (ShiftedExponential(30.0, 0.02), 5.0)):
            v = make_view(q_cum=q, space=space)
            assert float(_model_pool(v, 1e6)) > 0.0
            assert space.sf_geq(q) - space.sf_geq(q + 1e6 / v.n_alive) == 0.0

    def test_requires_uniform_spaces(self):
        # three or more networks are solved for uniform free space only
        views = [make_view(space=ShiftedExponential(10.0, 0.05)), make_view(), make_view()]
        with pytest.raises(StrategyError):
            decide(SWO(), views, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_hessian_always_psd(self, seed):
        # the model is quadratic in (alpha, beta), so second differences
        # give its Hessian exactly
        views = random_views(np.random.default_rng(seed))
        f = lambda a, b: swo_objective(CouplingMatrix.two_net(a, b), views)
        h = 0.25
        f_aa = f(0.5 + h, 0.5) - 2 * f(0.5, 0.5) + f(0.5 - h, 0.5)
        f_bb = f(0.5, 0.5 + h) - 2 * f(0.5, 0.5) + f(0.5, 0.5 - h)
        f_ab = (f(0.5 + h, 0.5 + h) - f(0.5 + h, 0.5 - h)
                - f(0.5 - h, 0.5 + h) + f(0.5 - h, 0.5 - h)) / 4
        hess = np.array([[f_aa, f_ab], [f_ab, f_bb]]) / h ** 2
        scale = max(abs(hess).max(), 1.0)
        assert hess.trace() >= -1e-9 * scale
        assert np.linalg.det(hess) >= -1e-9 * scale ** 2


class TestSwoSolve:
    def test_box_solution_beats_fine_grid(self):
        # the decision minimizes the model over the (alpha, beta) box
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(20):
            views = random_views(rng)
            dec = decide(SWO(), views, 1)
            m = dec.matrix.as_array()
            grid_best = float(np.min(grid_objective(views, grid, grid)))
            assert dec.objective_value <= grid_best + 1e-9 * max(abs(grid_best), 1.0)
            assert 0.0 <= m[0, 0] <= 1.0 and 0.0 <= m[1, 1] <= 1.0

    def test_box_respects_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = decide(SWO(bounds=((0.3, 0.6), (0.5, 0.5))), random_views(rng), 1).matrix
            a, b = m.entry(0, 0), m.entry(1, 1)
            assert 0.3 <= a <= 0.6
            assert b == 0.5

    def test_non_uniform_decision_beats_fine_grid(self):
        rng = np.random.default_rng(13)
        grid = np.arange(0.0, 1.0 + 1e-9, 0.005)
        cases = [random_exponential_views(rng) for _ in range(10)]
        cases.append([random_exponential_views(rng)[0], random_views(rng)[1]])
        for views in cases:
            dec = decide(SWO(), views, 1)
            best = float(np.min(grid_objective(views, grid, grid)))
            assert dec.objective_value <= best + 1e-9 * max(abs(best), 1.0)


class TestSwoDecision:
    def test_dominates_fixed_couplings(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            views = random_views(rng)
            dec = decide(SWO(), views, 1)
            m = dec.matrix.as_array()
            assert m.shape == (2, 2)
            # the decision minimizes the decision-time model objective
            best = swo_objective(dec.matrix, views)
            for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                for b in (0.0, 0.5, 1.0):
                    rival = swo_objective(CouplingMatrix.two_net(a, b), views)
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

    def test_ties_take_the_smallest_alpha(self):
        # identical networks: every matrix with r_A = P / 2 is optimal, and
        # the tie rule picks alpha = 0 (then beta = 0)
        views = [make_view(), make_view()]
        m = decide(SWO(), views, 1).matrix.as_array()
        assert m[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert m[1, 1] == pytest.approx(0.0, abs=1e-12)
        # in general alpha is the smallest value in bounds that yields r_A
        rng = np.random.default_rng(17)
        for _ in range(20):
            views = random_views(rng)
            bounds = ((0.1, 0.8), (0.2, 0.9))
            m = decide(SWO(bounds=bounds), views, 1).matrix.as_array()
            r_a = m[0, 0] * views[0].pool + m[1, 0] * views[1].pool
            smallest = max(0.1, (r_a - 0.8 * views[1].pool) / views[0].pool)
            assert m[0, 0] == pytest.approx(smallest, abs=1e-9)

    def test_point_free_space_two_networks(self):
        # every survivor of A fails past an increment of 10, every survivor
        # of B past 40; the decision keeps both windows shut when it can
        views = [make_view(n_alive=2e5, pool=2.5e6, q_cum=0.0, space=Point(10.0)),
                 make_view(n_alive=1e5, pool=2.5e6, q_cum=0.0, space=Point(40.0))]
        dec = decide(SWO(), views, 1)
        m = dec.matrix.as_array()
        r_a = m[0, 0] * 2.5e6 + m[1, 0] * 2.5e6
        assert r_a / 2e5 <= 10.0 and (5e6 - r_a) / 1e5 <= 40.0
        # the search keeps the first minimum: the low end of the safe window
        assert r_a == pytest.approx(1e6, rel=1e-3)
        assert dec.objective_value == 0.0
        grid = np.arange(0.0, 1.0 + 1e-9, 0.005)
        assert dec.objective_value <= np.min(grid_objective(views, grid, grid))

    def test_objective_value_is_swo_objective(self):
        rng = np.random.default_rng(19)
        cases = [random_views(rng), random_exponential_views(rng),
                 random_multinet_views(rng, 3)]
        for views in cases:
            if all(v.n_alive <= 0 for v in views):
                continue
            dec = decide(SWO(), views, 1)
            assert dec.objective_value == swo_objective(dec.matrix, views)

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
    def test_two_network_case_matches_three_with_idle_third(self):
        # a third network that is dead and has nothing to send leaves the
        # problem unchanged, so both paths must route the same inbound loads
        rng = np.random.default_rng(42)
        for _ in range(2):
            views = random_views(rng)
            idle = make_view(n_alive=0.0, pool=0.0)
            pools = np.array([v.pool for v in views])
            two = solve(views).as_array().T @ pools
            three = solve(views + [idle]).as_array().T @ np.append(pools, 0.0)
            assert three[2] == 0.0
            assert np.allclose(two, three[:2], rtol=1e-9)

    def test_symmetric_three_network_solution(self):
        views = [make_view(), make_view(), make_view()]
        m = solve(views).as_array()
        assert np.allclose(m, m[0], atol=1e-6)  # all rows identical
        assert np.allclose(m[0], [1 / 3] * 3, atol=1e-6)

    def test_rows_stochastic_and_bounded(self):
        rng = np.random.default_rng(5)
        views = [make_view(n_alive=rng.uniform(1e5, 9e5),
                           pool=rng.uniform(1e6, 4e7),
                           q_cum=rng.uniform(20, 100)) for _ in range(4)]
        m = solve(views, bounds=(0.05, 0.9)).as_array()
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)
        assert (m >= 0.05 - 1e-9).all() and (m <= 0.9 + 1e-9).all()


def model_quadratic(inbound, views):
    """The uniform model written out: sum of c_k * u_k * (E[L_k] + q_k + u_k)
    over live networks inside their support, for inbound loads indexed by
    network along the first axis."""
    value = 0.0
    for k, v in enumerate(views):
        sd = v.space_dist
        if v.n_alive <= 0 or v.q_cum >= sd.hi:
            continue
        u = inbound[k] / v.n_alive
        c = (1.0 - v.attack_frac) * v.node_count / (sd.hi - sd.lo)
        value += c * u * (v.load_mean + v.q_cum + u)
    return value


def quad_objective(row, views):
    """The model for identical matrix rows `row` (or a stack of rows)."""
    return model_quadratic(np.moveaxis(row, -1, 0) * sum(v.pool for v in views), views)


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
            m = solve(views, bounds).as_array()
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
            row = solve(views, bounds).as_array()[0]
            # dead networks are pinned at lo whenever the others can take the rest
            dead = np.array([v.n_alive <= 0 for v in views])
            feasible = np.all(~dead | (grid <= lo + 1e-9), axis=1)
            best = np.min(quad_objective(grid[feasible], views))
            assert quad_objective(row, views) <= best + 1e-12 * max(1.0, best)

    def test_zero_cost_ties_fill_in_index_order(self):
        # Survivors at the top of their support cannot fail: zero cost.
        saturated = make_view(q_cum=180.0)
        m = solve([make_view(), saturated, saturated, saturated], (0.0, 0.6)).as_array()
        assert np.allclose(m[0], [0.0, 0.6, 0.4, 0.0])

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.05, 0.9)])
    def test_dead_network_pinned_at_lower_bound(self, bounds):
        # The first decision of a three-network run whose network 0 is wholly
        # attacked: load sent there would only be held and sent on next step.
        attack = (1.0, 0.3, 0.3)
        views = [make_view(n_alive=(1.0 - p) * 1e5, pool=p * 1e5 * 75.0, q_cum=0.0,
                           attack_frac=p, node_count=1e5, space=space)
                 for p, space in zip(attack, (Uniform(20, 180), Uniform(40, 280),
                                              Uniform(30, 230)))]
        m = solve(views, bounds).as_array()
        assert np.all(m[:, 0] == bounds[0])
        # two networks: r_A at its lower bound, lo_a * P_A + (1 - hi_b) * P_B
        (lo, hi), (p_a, p_b) = bounds, (views[0].pool, views[1].pool)
        m = solve(views[:2], bounds).as_array()
        assert m[0, 0] * p_a + m[1, 0] * p_b == pytest.approx(lo * p_a + (1 - hi) * p_b)

    def test_dead_networks_take_only_what_live_ones_cannot(self):
        dead = make_view(n_alive=0.0, q_cum=np.inf)
        m = solve([make_view(), dead, dead], (0.0, 0.6)).as_array()
        assert np.allclose(m[0], [0.6, 0.4, 0.0])

    @pytest.mark.parametrize("flat", [{"pool": 0.0}, {"q_cum": 200.0}],
                             ids=["no_pool", "saturated"])
    def test_flat_objective_projects_sbd_row(self, flat):
        views = [make_view(n_alive=a, **flat) for a in (1e5, 2e5, 7e5)]
        m = solve(views, (0.2, 0.5)).as_array()
        assert np.allclose(m[0], [0.2, 0.3, 0.5])

    def test_infeasible_bounds_rejected(self):
        views = [make_view(), make_view(), make_view()]
        with pytest.raises(StrategyError):
            solve(views, (0.4, 1.0))
        with pytest.raises(StrategyError):
            solve(views, (0.0, 0.3))

    def test_per_network_bounds_rejected_for_three_networks(self):
        views = [make_view(), make_view(), make_view()]
        strategy = SWO(bounds=((0.0, 1.0), (0.1, 0.9), (0.0, 1.0)))
        with pytest.raises(StrategyError):
            decide(strategy, views, 1)
        assert decide(SWO(bounds=((0.1, 0.9),)), views, 1).matrix.n == 3


# One SWO decision per solver branch, pinned exactly: a two-network entry is
# the whole matrix, a three-or-more entry the row every network shares.
PINNED_DECISIONS = [
    ("box_interior",
     [make_view(n_alive=4.1e5, pool=1.7e7, q_cum=35.0),
      make_view(n_alive=3.6e5, pool=6.0e6, q_cum=40.0, attack_frac=0.2)],
     ((0.0, 1.0),),
     ((0.6477484066450738, 0.3522515933549262), (1.0, 0.0))),
    ("box_interior_beta",
     [make_view(n_alive=4.1e5, pool=1.7e7, q_cum=35.0),
      make_view(n_alive=5.6e5, pool=6.0e6, q_cum=40.0, attack_frac=0.2, space=Uniform(25, 200))],
     ((0.0, 1.0),),
     ((0.0, 1.0), (0.8939082883941123, 0.1060917116058877))),
    ("box_at_bound",
     [make_view(n_alive=4.1e5, pool=1.7e7, q_cum=35.0, attack_frac=0.3),
      make_view(n_alive=2.3e5, pool=6.0e6, q_cum=52.5, attack_frac=0.1, space=Uniform(30, 230))],
     ((0.0, 0.2),),
     ((0.2, 0.8), (1.0, 0.0))),
    ("box_per_network_bounds",
     [make_view(n_alive=3.3e5, pool=2.9e7, q_cum=61.0, space=Uniform(10, 150)),
      make_view(n_alive=6.2e5, pool=4.0e6, q_cum=22.0, attack_frac=0.2)],
     ((0.1, 0.8), (0.2, 0.9)),
     ((0.1, 0.9), (0.09999999999999998, 0.9))),
    ("zoom_interior",
     [make_view(n_alive=3.9e5, pool=2.2e7, q_cum=48.0, space=ShiftedExponential(10.0, 0.005)),
      make_view(n_alive=3.6e5, pool=9.0e6, q_cum=55.0, attack_frac=0.2,
                space=ShiftedExponential(15.0, 0.004))],
     ((0.0, 1.0),),
     ((0.10084588068181818, 0.8991541193181818), (1.0, 0.0))),
    ("zoom_at_bound",
     [make_view(n_alive=3.9e5, pool=2.2e7, q_cum=48.0, space=ShiftedExponential(10.0, 0.02)),
      make_view(n_alive=1.6e5, pool=9.0e6, q_cum=95.0, attack_frac=0.4,
                space=ShiftedExponential(25.0, 0.011))],
     ((0.0, 1.0),),
     ((0.0, 1.0), (0.0, 1.0))),
    ("zoom_mixed",
     [make_view(n_alive=3.9e5, pool=2.2e7, q_cum=48.0, space=ShiftedExponential(10.0, 0.02)),
      make_view(n_alive=2.3e5, pool=6.0e6, q_cum=52.5, space=Uniform(30, 230))],
     ((0.05, 0.95),),
     ((0.9499999999999998, 0.050000000000000155), (0.95, 0.050000000000000044))),
    ("multinet_3",
     [make_view(n_alive=4.1e5, pool=1.7e7, q_cum=35.0),
      make_view(n_alive=2.3e5, pool=6.0e6, q_cum=52.5, space=Uniform(30, 230)),
      make_view(n_alive=5.5e5, pool=1.1e7, q_cum=28.0, attack_frac=0.15, space=Uniform(15, 120))],
     ((0.0, 1.0),),
     (0.5741663829532934, 0.05550303924042794, 0.37033057780627876)),
    ("multinet_5",
     [make_view(n_alive=4.1e5, pool=1.7e7, q_cum=35.0),
      make_view(n_alive=2.3e5, pool=6.0e6, q_cum=52.5, space=Uniform(30, 230)),
      make_view(n_alive=5.5e5, pool=1.1e7, q_cum=28.0, attack_frac=0.15, space=Uniform(15, 120)),
      make_view(n_alive=1.2e5, pool=3.1e7, q_cum=90.0, attack_frac=0.5, space=Uniform(40, 280)),
      make_view(n_alive=7.0e5, pool=2.0e6, q_cum=21.0, attack_frac=0.05)],
     ((0.05, 0.9),),
     (0.18785539928949102, 0.05, 0.08725910947121161, 0.05, 0.6248854912392974)),
    ("dead_network",
     [make_view(n_alive=0.0, pool=7.5e6, q_cum=0.0, attack_frac=1.0, node_count=1e5),
      make_view(n_alive=7e4, pool=2.25e6, q_cum=0.0, node_count=1e5, space=Uniform(40, 280)),
      make_view(n_alive=7e4, pool=2.25e6, q_cum=0.0, node_count=1e5, space=Uniform(30, 230))],
     ((0.05, 0.9),),
     (0.05, 0.5380681818181818, 0.41193181818181823)),
    ("dead_network_two_net",
     [make_view(n_alive=0.0, pool=7.5e6, q_cum=0.0, attack_frac=1.0, node_count=1e5),
      make_view(n_alive=7e4, pool=2.25e6, q_cum=0.0, node_count=1e5, space=Uniform(40, 280))],
     ((0.05, 0.9),),
     ((0.05, 0.95), (0.09999999999999998, 0.9))),
    ("q_cum_inf",
     [make_view(n_alive=4.1e5, pool=1.7e7, q_cum=35.0),
      make_view(n_alive=0.0, pool=3.0e6, q_cum=float("inf")),
      make_view(n_alive=0.0, pool=0.0, q_cum=float("inf"))],
     ((0.0, 0.6),),
     (0.6, 0.4, 0.0)),
    ("no_pool",
     [make_view(n_alive=a, pool=0.0) for a in (1e5, 2e5, 7e5)],
     ((0.2, 0.5),),
     (0.2, 0.30000000000000004, 0.5)),
    ("no_pool_two_net",
     [make_view(n_alive=1e5, pool=0.0), make_view(n_alive=2e5, pool=0.0)],
     ((0.3, 0.7), (0.1, 0.4)),
     ((0.3, 0.7), (0.9, 0.1))),
    ("zero_cost_tie",
     [make_view(), make_view(q_cum=180.0), make_view(q_cum=180.0), make_view(q_cum=190.0)],
     ((0.0, 0.6),),
     (0.0, 0.6, 0.4, 0.0)),

    ("zoom_grid_arithmetic",
     [make_view(n_alive=47572.80277308121, pool=571.3022827404685, q_cum=22.41808647699554,
                attack_frac=0.5145884725970752, node_count=100000, load_mean=60.0,
                space=ShiftedExponential(20.0, 0.008333333333333333)),
      make_view(n_alive=98005.09482666761, pool=1176.9442019589383, q_cum=22.41808647699554,
                attack_frac=0.0, node_count=100000, load_mean=60.0,
                space=ShiftedExponential(20.0, 0.008333333333333333))],
     ((0.0, 1.0),),
     ((0.0, 1.0), (0.4854185614220854, 0.5145814385779146))),
    ("zoom_grid_endpoint",
     [make_view(n_alive=832.8775393189522, pool=0.0, q_cum=174.74077797621203,
                attack_frac=0.0, node_count=2000.0, load_mean=13.582735769796056,
                space=Uniform(45.14032070593403, 267.22576869680313)),
      make_view(n_alive=0.5941042843532633, pool=39246623.167107776, q_cum=1.7787258805847903,
                attack_frac=0.1649293445292943, node_count=2000.0, load_mean=47.03989411670173,
                space=Point(17.604022777115183))],
     ((0.6339284339796136, 0.8130190477833392), (0.04977516003167137, 0.7592666581838622)),
     ((0.6339284339796136, 0.3660715660203864), (0.9502248399683286, 0.04977516003167137))),
    ("zero_cost_tie_rounding",
     [make_view(n_alive=630755.58971428, pool=1872951.9721552955, q_cum=63.86400347276097),
      make_view(n_alive=609987.6297141807, pool=14779474.28361242, q_cum=182.72301114692485),
      make_view(n_alive=332708.20073858317, pool=3660866.144943068, q_cum=181.31020461361524),
      make_view(n_alive=87506.21749152515, pool=22980591.862309035, q_cum=183.76209417899742)],
     ((0.0740116826699872, 0.391529849241405),),
     (0.0740116826699872, 0.391529849241405, 0.391529849241405, 0.1429286188472027)),
]


@pytest.mark.parametrize("views,bounds,expected", [case[1:] for case in PINNED_DECISIONS],
                         ids=[case[0] for case in PINNED_DECISIONS])
def test_pinned_decisions(views, bounds, expected):
    m = decide(SWO(bounds=bounds), views, 1).matrix.m
    assert m == (expected if len(views) == 2 else (expected,) * len(views))
