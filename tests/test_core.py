"""Domain types: coupling matrices, network configs, attacks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascnet.core import (AttackSpec, BarabasiAlbert, Complete, CouplingError,
                          CouplingMatrix, ErdosRenyi, NetworkConfig,
                          is_valid_coupling, validate_coupling)
from cascnet.distributions import Point, Uniform


class TestCouplingMatrix:
    def test_two_net_layout(self):
        m = CouplingMatrix.two_net(0.65, 0.35)
        assert m.entry(0, 0) == pytest.approx(0.65)
        assert m.entry(0, 1) == pytest.approx(0.35)
        assert m.entry(1, 0) == pytest.approx(0.65)
        assert m.entry(1, 1) == pytest.approx(0.35)

    def test_balanced_matrix_valid(self):
        validate_coupling(CouplingMatrix.from_array([[0.65, 0.35], [0.35, 0.65]]))

    def test_identity(self):
        m = CouplingMatrix.identity(3)
        assert m.as_array().tolist() == np.eye(3).tolist()
        validate_coupling(m)

    def test_row_sum_enforced(self):
        with pytest.raises(CouplingError):
            validate_coupling(CouplingMatrix.from_array([[0.6, 0.3], [0.5, 0.5]]))

    def test_entry_bounds_enforced(self):
        with pytest.raises(CouplingError):
            validate_coupling(CouplingMatrix.from_array([[1.3, -0.3], [0.5, 0.5]]))

    def test_is_valid_predicate(self):
        assert is_valid_coupling(CouplingMatrix.two_net(1.0, 0.0))
        assert not is_valid_coupling(CouplingMatrix.from_array([[0.9, 0.0], [0.0, 1.0]]))

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_two_net_always_valid(self, a, b):
        assert is_valid_coupling(CouplingMatrix.two_net(a, b))

    def test_row_sum_tolerance_is_tight(self):
        # a 1e-6 row-sum error must be rejected
        with pytest.raises(CouplingError):
            validate_coupling(CouplingMatrix.from_array(
                [[0.5 + 1e-6, 0.5], [0.5, 0.5]]))


class TestNetworkConfig:
    def test_node_count_positive(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, 0, Point(75.0), Uniform(20, 180))

    def test_degree_range(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, 100, Point(75.0), Uniform(20, 180), ErdosRenyi(0.0))
        with pytest.raises(ValueError):
            NetworkConfig(0, 100, Point(75.0), Uniform(20, 180), BarabasiAlbert(100.0))
        NetworkConfig(0, 100, Point(75.0), Uniform(20, 180), ErdosRenyi(20.0))

    @pytest.mark.parametrize("nodes,degree", [(1, 0.5), (20, 19.5)])
    def test_erdos_renyi_degree_at_most_n_minus_1(self, nodes, degree):
        # The edge probability degree / (nodes - 1) must not exceed 1.
        with pytest.raises(ValueError, match=r"\(0, node_count - 1\]"):
            NetworkConfig(0, nodes, Point(75.0), Uniform(20, 180), ErdosRenyi(degree))
        NetworkConfig(0, 20, Point(75.0), Uniform(20, 180), ErdosRenyi(19.0))

    def test_default_topology_complete(self):
        cfg = NetworkConfig(0, 10, Point(1.0), Uniform(0, 1))
        assert isinstance(cfg.topology, Complete)


class TestAttackSpec:
    def test_range(self):
        AttackSpec((0.0, 1.0))
        with pytest.raises(ValueError):
            AttackSpec((0.5, 1.2))
        with pytest.raises(ValueError):
            AttackSpec((-0.1,))
