"""Mean-field recursion: golden traces, invariants, reductions."""

import csv
import math

import pytest
from hypothesis import given, settings, strategies as st

from cascnet.core import AttackSpec, CouplingMatrix, NetworkConfig
from cascnet.distributions import Point, ShiftedExponential, Uniform
from cascnet.meanfield import (MeanFieldError, Outcome, mf_run,
                               rkg_identical_step, rkg_run, trajectory_to_csv)
from cascnet.search import critical_attack_size, make_meanfield_runner
from cascnet.strategies import FCC, SBD, SWO

N = 10 ** 6


def two_nets(space_a=Uniform(20, 180), space_b=Uniform(20, 180), load=Point(75.0)):
    return [NetworkConfig(0, N, load, space_a),
            NetworkConfig(1, N, load, space_b)]


def first_state(attack, matrix, cfgs=None):
    """The t = 0 state of a run under the fixed coupling `matrix`: the
    attack and its first redistribution."""
    return mf_run(cfgs or two_nets(), AttackSpec(attack), FCC(matrix)).trajectory[0]


class TestInit:
    def test_all_internal_coupling(self):
        state = first_state((0.5, 0.0), CouplingMatrix.two_net(1.0, 1.0))
        assert state.total_extra == (pytest.approx(3.75e7), 0.0)
        assert state.q_cum[0] == pytest.approx(75.0)
        assert state.q_cum[1] == 0.0

    def test_even_coupling(self):
        # A's pool 3.75e7 splits evenly: A gets 1.875e7 over 5e5 survivors,
        # B gets 1.875e7 over 1e6 survivors.
        state = first_state((0.5, 0.0), CouplingMatrix.two_net(0.5, 0.5))
        assert state.q_cum[0] == pytest.approx(37.5)
        assert state.q_cum[1] == pytest.approx(18.75)

    def test_full_attack_sentinel(self):
        # Every node of A dies. The identity coupling aims A's pool back at A,
        # which has no survivors, so the pool follows A's row renormalized
        # over the live networks: all of it lands on B.
        state = first_state((1.0, 0.0), CouplingMatrix.identity(2))
        assert state.q_cum == (0.0, pytest.approx(75.0))
        # Half of B's pool is aimed at the empty A: A holds it, and its
        # average extra load is +inf.
        state = first_state((1.0, 0.5), CouplingMatrix.two_net(0.5, 0.5))
        assert math.isinf(state.q_cum[0])
        assert state.total_extra[0] == pytest.approx(0.25 * N * 75.0)
        assert state.q_cum[1] == pytest.approx(187.5)

    @pytest.mark.parametrize("attack", [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (0.3, 0.6)])
    def test_is_the_first_state_of_a_run(self, attack):
        # The attack, its survivors, and every unit of the attacked nodes'
        # load placed: on survivors as Q, or held by an empty network.
        for matrix in (CouplingMatrix.two_net(0.5, 0.5), CouplingMatrix.identity(2)):
            state = first_state(attack, matrix)
            assert state.t == 0 and state.f == attack
            assert state.n_alive == tuple((1.0 - p) * N for p in attack)
            assert state.q_cum == state.q_step
            placed = sum(q * na if na >= 1.0 else held for q, na, held
                         in zip(state.q_step, state.n_alive, state.total_extra))
            assert placed == pytest.approx(sum(N * p * 75.0 for p in attack))

    def test_dimension_mismatch(self):
        with pytest.raises(MeanFieldError, match="attack has 1 entries for 2 networks"):
            mf_run(two_nets(), AttackSpec((0.5,)), FCC(CouplingMatrix.identity(2)))


class TestStepGolden:
    def test_first_failure_fraction(self):
        # After the even split, A carries 37.5 per survivor; survivors with
        # space below 37.5 fail: f = 1 - 0.5 * (1 - 17.5/160) exactly.
        state1 = mf_run(two_nets(), AttackSpec((0.5, 0.0)),
                        FCC(CouplingMatrix.two_net(0.5, 0.5))).trajectory[1]
        assert state1.t == 1
        assert state1.f[0] == pytest.approx(0.5546875, abs=1e-12)
        assert state1.f[1] == 0.0  # 18.75 is below B's minimum space of 20
        # newly failed A nodes carried mean load 75 plus the 37.5 extra
        expected_pool = N * (0.5546875 - 0.5) * (75.0 + 37.5)
        assert state1.total_extra[0] == pytest.approx(expected_pool)

    def test_monotone_failed_fraction_and_load(self):
        traj = mf_run(two_nets(), AttackSpec((0.5, 0.0)), SBD())
        for prev, cur in zip(traj.trajectory, traj.trajectory[1:]):
            for i in range(2):
                assert cur.f[i] >= prev.f[i] - 1e-12
                assert cur.q_cum[i] >= prev.q_cum[i] - 1e-12


class TestOutcomes:
    def test_no_cascade(self):
        traj = mf_run(two_nets(), AttackSpec((0.1, 0.0)), SBD())
        assert traj.outcome is Outcome.NO_CASCADE
        assert traj.surviving_portion((N, N)) == pytest.approx(0.95)

    def test_survived_with_cascade(self):
        traj = mf_run(two_nets(), AttackSpec((0.5, 0.0)), SBD())
        assert traj.outcome is Outcome.SURVIVED
        assert 0.0 < traj.surviving_portion((N, N)) < 0.75

    def test_breakdown(self):
        traj = mf_run(two_nets(), AttackSpec((0.8, 0.0)), SBD())
        assert traj.outcome is Outcome.BREAKDOWN
        assert traj.surviving_portion((N, N)) == pytest.approx(0.0, abs=1e-6)

    def test_non_converged_flag(self):
        traj = mf_run(two_nets(), AttackSpec((0.5, 0.0)), SBD(), max_steps=2)
        assert traj.outcome is Outcome.NON_CONVERGED

    def test_dead_network_load_forwarded(self):
        # A is wiped out; its identity-coupled pool has nowhere to go inside
        # A and must be forwarded to B instead of vanishing.
        traj = mf_run(two_nets(), AttackSpec((1.0, 0.0)),
                      FCC(CouplingMatrix.two_net(1.0, 1.0)))
        assert traj.trajectory[0].q_cum[1] == pytest.approx(75.0)
        assert traj.trajectory[-1].q_cum[1] >= 75.0


class TestThreeNetworks:
    def test_swo_run_near_sbd_critical_attack(self):
        # Three uniform networks near the edge: late steps redistribute tiny
        # pools, where the water-filling's lam - g cancellation is largest.
        cfgs = [NetworkConfig(0, 10 ** 5, Point(75.0), Uniform(20, 180)),
                NetworkConfig(1, 10 ** 5, Point(75.0), Uniform(40, 280)),
                NetworkConfig(2, 10 ** 5, Point(75.0), Uniform(30, 230))]
        shape = (1.0, 1.0, 1.0)
        crit = critical_attack_size(make_meanfield_runner(cfgs, SBD(), shape)).value
        attack = AttackSpec(tuple(0.95 * crit * s for s in shape))
        traj = mf_run(cfgs, attack, SWO())
        assert traj.outcome is Outcome.SURVIVED
        assert min(traj.final_fractions) > 0.5
        for dec in traj.decisions:
            m = dec.matrix.as_array()
            assert (m == m[0]).all()
            assert abs(m[0].sum() - 1.0) <= 1e-12


class TestSingleNetworkReduction:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
    def test_rkg_unit_group_matches_meanfield(self, p):
        load, space = Point(75.0), Uniform(20, 180)
        cfg = [NetworkConfig(0, N, load, space)]
        traj = mf_run(cfg, AttackSpec((p,)), FCC(CouplingMatrix.identity(1)))
        _, portion = rkg_run(p, 1, load, space)
        assert traj.surviving_portion((N,)) == pytest.approx(portion, abs=1e-9)

    def test_rkg_breakdown_matches_meanfield(self):
        load, space = Point(75.0), Uniform(20, 180)
        cfg = [NetworkConfig(0, N, load, space)]
        traj = mf_run(cfg, AttackSpec((0.6,)), FCC(CouplingMatrix.identity(1)))
        _, portion = rkg_run(0.6, 1, load, space)
        assert traj.outcome is Outcome.BREAKDOWN
        assert portion == pytest.approx(0.0, abs=1e-9)

    def test_sbd_equals_pooled_single_network(self):
        # identical networks under SBD behave like one pooled network hit
        # with the averaged attack
        traj = mf_run(two_nets(), AttackSpec((0.5, 0.3)), SBD())
        pooled = mf_run([NetworkConfig(0, 2 * N, Point(75.0), Uniform(20, 180))],
                        AttackSpec((0.4,)), FCC(CouplingMatrix.identity(1)))
        assert traj.surviving_portion((N, N)) == pytest.approx(
            pooled.surviving_portion((2 * N,)), abs=1e-9)


class TestRkgRecursion:
    def test_requires_positive_group_size(self):
        with pytest.raises(MeanFieldError):
            rkg_identical_step(0.0, 0, Point(75.0), Uniform(20, 180))

    def test_zero_attack_is_fixed_point(self):
        qs, portion = rkg_run(0.0, 3, Point(75.0), Uniform(20, 180))
        assert qs[0] == 0.0
        assert portion == 1.0

    def test_step_never_decreases(self):
        for m in (1, 2, 4):
            for q in (0.0, 5.0, 20.0):
                assert rkg_identical_step(q, m, Point(75.0), Uniform(0, 180)) >= q

    def test_breakdown_when_no_mass_survives(self):
        with pytest.raises(MeanFieldError):
            rkg_identical_step(200.0, 1, Point(75.0), Uniform(0, 180), 0.0)


@settings(max_examples=50, deadline=None)
@given(p=st.floats(0.01, 0.95), alpha=st.floats(0, 1), beta=st.floats(0, 1))
def test_fractions_stay_in_unit_interval(p, alpha, beta):
    traj = mf_run(two_nets(), AttackSpec((p, 0.0)),
                  FCC(CouplingMatrix.two_net(alpha, beta)), max_steps=5000)
    for state in traj.trajectory:
        for i in range(2):
            assert -1e-12 <= state.f[i] <= 1.0 + 1e-12
            assert state.n_alive[i] >= -1e-6


def test_trajectory_csv_layout(tmp_path):
    traj = mf_run(two_nets(), AttackSpec((0.5, 0.0)), SBD())
    path = tmp_path / "trace.csv"
    trajectory_to_csv(traj, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "network", "f", "n_alive", "F", "Q_step", "Q_cum"]
    assert len(rows) == 1 + 2 * len(traj.trajectory)
    assert float(rows[1][2]) == pytest.approx(0.5)
