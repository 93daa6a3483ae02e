"""Critical-size bisection, sweeps, coupling heatmaps, comparison batches."""

import csv

import pytest

from cascnet.core import CouplingMatrix, NetworkConfig
from cascnet.distributions import Point, ShiftedExponential, Uniform
from cascnet.search import (CriticalResult, GraphCache, HeatmapResult,
                            SearchError, SweepResult, attack_sweep,
                            compare_strategies, critical_attack_size,
                            fcc_grid_sweep, heatmap_to_csv,
                            make_meanfield_runner, make_montecarlo_runner,
                            meanfield_sweep, sweep_to_csv)
from cascnet.strategies import FCC, SBD, SWO

N = 10 ** 6


def identical_cfgs(n=N):
    return [NetworkConfig(0, n, Point(75.0), Uniform(20, 180)),
            NetworkConfig(1, n, Point(75.0), Uniform(20, 180))]


class TestBisection:
    def test_locates_synthetic_threshold(self):
        for thr in (0.123, 0.5, 0.901):
            res = critical_attack_size(lambda s, t=thr: s > t, tol=1e-4)
            assert abs(res.value - thr) <= 1e-4
            assert not res.no_breakdown

    def test_unbreakable_system_flagged(self):
        res = critical_attack_size(lambda s: False)
        assert res == CriticalResult(1.0, no_breakdown=True)

    def test_broken_at_zero_rejected(self):
        with pytest.raises(SearchError):
            critical_attack_size(lambda s: True)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(SearchError):
            critical_attack_size(lambda s: s > 0.5, tol=0.0)

    def test_meanfield_runner_brackets_its_answer(self):
        runner = make_meanfield_runner(identical_cfgs(), SBD(), (1.0, 0.0))
        res = critical_attack_size(runner, tol=1e-3)
        assert 0.0 < res.value < 1.0
        assert runner(res.value + 2e-3)
        assert not runner(res.value - 2e-3)

    def test_zero_free_space_breaks_instantly(self):
        cfgs = [NetworkConfig(0, N, Point(75.0), Point(0.0)),
                NetworkConfig(1, N, Point(75.0), Point(0.0))]
        runner = make_meanfield_runner(cfgs, SBD(), (1.0, 0.0))
        res = critical_attack_size(runner, tol=1e-3)
        assert res.value <= 1e-3


class TestMontecarloRunner:
    CFGS = [NetworkConfig(0, 2000, Point(75.0), Uniform(20, 180)),
            NetworkConfig(1, 2000, Point(75.0), Uniform(20, 180))]

    def test_majority_predicate_monotone_at_extremes(self):
        runner = make_montecarlo_runner(self.CFGS, SBD(), (1.0, 0.0), seeds=[0, 1, 2])
        assert not runner(0.05)
        assert runner(0.95)

    def test_tracks_meanfield_critical_size(self):
        mc = critical_attack_size(
            make_montecarlo_runner(self.CFGS, SBD(), (1.0, 0.0), seeds=[0, 1, 2]),
            tol=1e-3)
        mf = critical_attack_size(
            make_meanfield_runner(identical_cfgs(), SBD(), (1.0, 0.0)), tol=1e-3)
        assert mc.value == pytest.approx(mf.value, abs=0.05)

    def test_one_survivor_is_not_breakdown(self):
        # 48 of 49 nodes attacked, free space too large for any cascade. The
        # survivor's fraction 1/49 gives (1/49) * 49 < 1 in floating point.
        cfgs = [NetworkConfig(i, 49, Point(1.0), Point(1e9)) for i in range(2)]
        runner = make_montecarlo_runner(cfgs, SBD(), (48 / 49, 0.0), seeds=[0])
        assert not runner(1.0)


class TestStepCap:
    """A run cut off at `max_steps` while every network still has survivors
    has no verdict, so a bisection stops instead of reading it as survival."""

    NONIDENTICAL = [NetworkConfig(0, 20000, Point(75.0), Uniform(20, 180)),
                    NetworkConfig(1, 20000, Point(75.0), Uniform(40, 280))]

    def _runners(self, max_steps):
        return [make_meanfield_runner(self.NONIDENTICAL, SBD(), (1.0, 0.0), max_steps),
                make_montecarlo_runner(self.NONIDENTICAL, SBD(), (1.0, 0.0), [0, 1, 2],
                                       max_steps=max_steps)]

    @pytest.mark.parametrize("max_steps", [1, 2, 3])
    def test_cut_off_run_raises_naming_scale_and_cap(self, max_steps):
        for runner in self._runners(max_steps):
            with pytest.raises(SearchError, match=rf"scale 0\.5 .*max_steps = {max_steps}\b"):
                critical_attack_size(runner, tol=1e-3)

    @pytest.mark.parametrize("max_steps", [1, 3])
    def test_cut_off_sweep_raises_naming_scale_and_cap(self, max_steps):
        # A sweep reports final surviving portions, which a cut-off run lacks.
        sweeps = [lambda: meanfield_sweep(self.NONIDENTICAL, SBD(), [0.7], (1.0, 0.0), max_steps),
                  lambda: attack_sweep(self.NONIDENTICAL, SBD(), [0.7], (1.0, 0.0), [0, 1],
                                       max_steps=max_steps)]
        for sweep in sweeps:
            with pytest.raises(SearchError, match=rf"scale 0\.7 .*max_steps = {max_steps}\b"):
                sweep()

    def test_cut_off_run_with_an_empty_network_is_broken(self):
        # The full attack empties network 0: survivor counts never rise again.
        for runner in self._runners(1):
            assert runner(1.0)

    def test_default_cap_settles(self):
        mf, mc = (critical_attack_size(r, tol=1e-3) for r in self._runners(10 ** 6))
        assert mf.value == 0.79150390625
        assert mc.value == pytest.approx(mf.value, abs=0.02)


def test_empty_seed_batch_rejected():
    cfgs = TestMontecarloRunner.CFGS
    with pytest.raises(SearchError, match="at least one seed"):
        make_montecarlo_runner(cfgs, SBD(), (1.0, 0.0), seeds=[])
    with pytest.raises(SearchError, match="at least one seed"):
        fcc_grid_sweep(cfgs, resolution=0.5, seeds=[])


@pytest.mark.filterwarnings("error")
def test_empty_seed_sweep_rejected_before_any_run(monkeypatch):
    import cascnet.search as search
    monkeypatch.setattr(search, "mc_run", lambda *a, **k: pytest.fail("mc_run was called"))
    with pytest.raises(SearchError, match="at least one seed"):
        attack_sweep(TestMontecarloRunner.CFGS, SBD(), [0.2, 0.5], seeds=[])


class TestSweep:
    def test_zero_attack_leaves_everything_alive(self):
        cfgs = [NetworkConfig(0, 500, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 500, Point(75.0), Uniform(20, 180))]
        res = attack_sweep(cfgs, SBD(), [0.0], seeds=range(3))
        assert res.mean_fraction == (1.0,)
        assert res.std_fraction == (0.0,)

    def test_mean_fraction_decreases_with_attack(self):
        cfgs = [NetworkConfig(0, 1000, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 1000, Point(75.0), Uniform(20, 180))]
        res = attack_sweep(cfgs, SBD(), [0.1, 0.3, 0.5, 0.7], seeds=range(5))
        slack = [2 * s for s in res.std_fraction]
        for i in range(3):
            assert res.mean_fraction[i + 1] <= res.mean_fraction[i] + slack[i] + slack[i + 1]

    def test_grid_validation(self):
        with pytest.raises(SearchError):
            attack_sweep(identical_cfgs(1000), SBD(), [0.5, 0.2], seeds=[0])
        with pytest.raises(SearchError):
            SweepResult((0.1, 0.2), (1.0, 1.0), (0.0, 0.0), 0)

    def test_csv_layout(self, tmp_path):
        res = SweepResult((0.1, 0.2), (0.9, 0.5), (0.01, 0.02), 7)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(res, str(path))
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["attack", "mean_fraction", "std", "n_runs"]
        assert rows[1] == ["0.1", "0.9", "0.01", "7"]
        assert len(rows) == 3


class TestHeatmap:
    def test_symmetric_networks_give_symmetric_cells(self):
        hm = fcc_grid_sweep(identical_cfgs(), resolution=0.5, tol=5e-3,
                            attack_shape=(1.0, 1.0), use_meanfield=True)
        assert hm.alpha_grid == (0.0, 0.5, 1.0)
        for i in range(3):
            for j in range(3):
                assert hm.cells[i][j] == pytest.approx(hm.cells[j][i], abs=5e-3)

    def test_clip_floor_applied(self):
        cfgs = [NetworkConfig(0, N, Point(75.0), Point(0.0)),
                NetworkConfig(1, N, Point(75.0), Point(0.0))]
        hm = fcc_grid_sweep(cfgs, resolution=1.0, clip_floor=0.1, tol=5e-3,
                            use_meanfield=True)
        assert all(c == 0.1 for row in hm.cells for c in row)

    def test_argmax_and_max_value(self):
        hm = HeatmapResult((0.0, 1.0), (0.0, 1.0), ((0.2, 0.5), (0.4, 0.3)))
        assert hm.argmax == (0.0, 1.0)
        assert hm.max_value == 0.5

    def test_uneven_resolution_rejected(self):
        with pytest.raises(SearchError):
            fcc_grid_sweep(identical_cfgs(), resolution=0.3, use_meanfield=True)

    def test_csv_layout(self, tmp_path):
        hm = HeatmapResult((0.0, 1.0), (0.0,), ((0.25,), (0.75,)))
        path = tmp_path / "hm.csv"
        heatmap_to_csv(hm, str(path))
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["alpha", "beta", "critical_size"]
        assert len(rows) == 3
        assert rows[1][:2] == ["0.0", "0.0"]


class TestGraphCache:
    def test_reuses_generated_graphs(self):
        from cascnet.core import ErdosRenyi
        cfgs = [NetworkConfig(0, 300, Point(75.0), Uniform(20, 180), ErdosRenyi(6.0)),
                NetworkConfig(1, 300, Point(75.0), Uniform(20, 180), ErdosRenyi(6.0))]
        cache = GraphCache(cfgs)
        first = cache.graphs(3)
        second = cache.graphs(3)
        assert first[0] is second[0] and first[1] is second[1]
        other = cache.graphs(4)
        assert other[0] is not first[0]

    def test_complete_topology_caches_none(self):
        cache = GraphCache(identical_cfgs(100))
        assert cache.graphs(0) == [None, None]


def test_compare_strategies_shares_grid():
    cfgs = identical_cfgs()
    reports = compare_strategies(
        cfgs, {"even": FCC(CouplingMatrix.two_net(0.5, 0.5)), "balanced": SBD()},
        grid=[0.2, 0.5], tol=5e-3, use_meanfield=True)
    assert [r.name for r in reports] == ["even", "balanced"]
    for r in reports:
        assert r.sweep.attack_grid == (0.2, 0.5)
        assert 0.0 < r.critical.value < 1.0
    # survivor-weighted balancing should never lose to the even fixed split
    assert reports[1].critical.value >= reports[0].critical.value - 5e-3


# Mean-field critical sizes, exactly as the engine gave them when these pins
# were taken. A bisection returns a dyadic midpoint, so a change in the last
# bits of a trajectory shows here once it flips one probe; the acceptance
# criteria check the same systems only within 1e-3 or more.
NONIDENTICAL = [NetworkConfig(0, 10 ** 5, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 10 ** 5, Point(75.0), Uniform(40, 280))]
NARROW = [NetworkConfig(0, 10 ** 6, Uniform(10, 30), Uniform(10, 65)),
          NetworkConfig(1, 10 ** 6, Uniform(10, 30), Uniform(10, 65))]
SHIFTED_EXP = [NetworkConfig(i, 10 ** 5, Point(60.0), ShiftedExponential(20.0, 1.0 / 120.0))
               for i in range(2)]


@pytest.mark.parametrize("cfgs,shape,i,j,want", [
    (NONIDENTICAL, (0.0, 1.0), 0, 3, 0.63134765625),   # criterion 1's argmax cell
    (NONIDENTICAL, (0.0, 1.0), 20, 0, 0.35498046875),  # its lowest cell
    (NONIDENTICAL, (0.0, 1.0), 10, 10, 0.62255859375),
    (NONIDENTICAL, (0.0, 1.0), 6, 16, 0.52294921875),
    (NARROW, (1.0, 0.0), 7, 7, 0.72021484375),         # criterion 3's diagonal
    (NARROW, (1.0, 0.0), 14, 14, 0.53857421875),
], ids=["heat-argmax", "heat-lowest", "heat-even", "heat-0.3-0.8", "diag-0.35", "diag-0.7"])
def test_meanfield_heat_cells_are_pinned(cfgs, shape, i, j, want):
    # The cell at grid indices (i, j) of a resolution-0.05 heatmap.
    heat = fcc_grid_sweep(cfgs, shape, tol=1e-3, use_meanfield=True,
                          alpha_grid=(i * 0.05,), beta_grid=(j * 0.05,))
    assert heat.cells[0][0] == want


@pytest.mark.parametrize("strategy", [SBD(), SWO()], ids=["sbd", "swo"])
def test_meanfield_shifted_exponential_critical_is_pinned(strategy):
    runner = make_meanfield_runner(SHIFTED_EXP, strategy, (1.0, 0.0))
    assert critical_attack_size(runner, tol=1e-3).value == 0.60400390625
