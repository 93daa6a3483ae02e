"""Distribution primitives: closed-form values, vectorized tails, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascnet.distributions import (DistributionError, Point,
                                   ShiftedExponential, Uniform, dist_mean,
                                   dist_sf_geq, dist_sf_geq_arr)


class TestUniform:
    def test_mean(self):
        assert dist_mean(Uniform(20, 180)) == pytest.approx(100.0)
        assert dist_mean(Uniform(10, 30)) == pytest.approx(20.0)

    def test_cdf_interpolates(self):
        # P[X <= x] = 1 - P[X >= x] for a continuous law.
        u = Uniform(10, 65)
        assert 1.0 - dist_sf_geq(u, 10) == 0.0
        assert 1.0 - dist_sf_geq(u, 65) == 1.0
        assert 1.0 - dist_sf_geq(u, 37.5) == pytest.approx(0.5)

    def test_sf_geq_complements_cdf(self):
        # Against the closed form 1 - clip((x - lo) / (hi - lo), 0, 1).
        u = Uniform(20, 180)
        for x, want in ((0.0, 1.0), (20.0, 1.0), (100.0, 0.5), (170.0, 0.0625),
                        (180.0, 0.0), (500.0, 0.0)):
            assert dist_sf_geq(u, x) == want

    def test_rejects_empty_interval(self):
        with pytest.raises(DistributionError):
            Uniform(5, 5)
        with pytest.raises(DistributionError):
            Uniform(10, 2)


class TestShiftedExponential:
    def test_mean(self):
        d = ShiftedExponential(20.0, 1.0 / 120.0)
        assert dist_mean(d) == pytest.approx(140.0)

    def test_tail(self):
        d = ShiftedExponential(20.0, 1.0 / 120.0)
        assert dist_sf_geq(d, 10.0) == 1.0
        assert dist_sf_geq(d, 20.0) == 1.0
        assert dist_sf_geq(d, 140.0) == pytest.approx(math.exp(-1.0))

    def test_rejects_bad_rate(self):
        with pytest.raises(DistributionError):
            ShiftedExponential(0.0, 0.0)
        with pytest.raises(DistributionError):
            ShiftedExponential(0.0, -1.0)


class TestPoint:
    def test_mass(self):
        p = Point(75.0)
        assert dist_mean(p) == 75.0
        assert dist_sf_geq(p, 75.0) == 1.0
        assert dist_sf_geq(p, 75.0001) == 0.0
        assert dist_sf_geq(p, 0.0) == 1.0


@pytest.mark.parametrize("dist", [Uniform(20, 180), ShiftedExponential(20, 1 / 120),
                                  Point(75.0)])
def test_sf_geq_arr_matches_scalar(dist):
    xs = np.array([-5.0, 0.0, 19.9, 20.0, 75.0, 100.0, 180.0, 1e6, np.inf])
    arr = dist_sf_geq_arr(dist, xs)
    for x, v in zip(xs, arr):
        assert v == pytest.approx(dist_sf_geq(dist, float(x)))


@pytest.mark.parametrize("dist", [Uniform(20, 180), ShiftedExponential(20, 1 / 120),
                                  Point(75.0)])
def test_sample_moments(dist):
    rng = np.random.default_rng(7)
    xs = dist.sample(200_000, rng)
    assert xs.shape == (200_000,)
    assert float(xs.mean()) == pytest.approx(dist_mean(dist), rel=0.01)
    # empirical tail matches the analytic one at a mid-support point
    q = dist_mean(dist)
    assert float((xs >= q).mean()) == pytest.approx(dist_sf_geq(dist, q), abs=0.01)


def test_point_sample_is_a_read_only_view():
    xs = Point(75.0).sample(1000, np.random.default_rng(0))
    assert np.array_equal(xs, np.full(1000, 75.0)) and xs.dtype == np.float64
    assert xs.strides == (0,)
    with pytest.raises(ValueError):
        xs[0] = 1.0


@given(st.floats(-100, 400), st.floats(-100, 400))
def test_cdf_monotone_uniform(a, b):
    # P[X <= x] never falls, so P[X >= x] never rises.
    u = Uniform(20, 180)
    lo, hi = min(a, b), max(a, b)
    assert dist_sf_geq(u, hi) <= dist_sf_geq(u, lo) + 1e-12


@given(st.floats(0, 1e6))
def test_sf_between_zero_and_one(x):
    for dist in (Uniform(20, 180), ShiftedExponential(20, 1 / 120), Point(75.0)):
        s = dist_sf_geq(dist, x)
        assert 0.0 <= s <= 1.0
