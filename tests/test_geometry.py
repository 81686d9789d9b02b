"""Exact vector algebra, the finite-difference oracle, and independence of the u-speed."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import Vec3, latitude_jet
from slantsurf import (
    CylindricalDirector,
    Jet3,
    NonFiniteSample,
    asymptotic_normal,
    conical_curvature,
    det3,
    fd_jet,
    kappa_prime,
    striction_point,
)
from slantsurf.geometry import cross, derivative_weights, dot, norm, normalize

coords = st.floats(-1.0, 1.0, allow_nan=False)
vectors = st.tuples(coords, coords, coords).map(np.array)


class TestVec3:
    """Single 3-vectors as length-3 rows."""

    def test_dot_cross_norm(self):
        ex, ey, ez = np.eye(3)
        assert np.array_equal(cross(ex, ey), ez)
        assert np.array_equal(cross(ey, ez), ex)
        assert np.array_equal(cross(ez, ex), ey)
        assert dot(ex, ey) == 0.0
        assert norm(np.array([3.0, 4.0, 0.0])) == 5.0

    def test_normalized_zero_vector_raises(self):
        with pytest.raises(ZeroDivisionError):
            normalize(np.zeros(3))

    @given(vectors, vectors)
    def test_cross_antisymmetry_is_exact(self, a, b):
        assert np.array_equal(cross(a, b), -cross(b, a))

    @given(vectors, vectors)
    def test_cross_orthogonal_to_factors(self, a, b):
        c = cross(a, b)
        assert abs(dot(c, a)) <= 4e-15
        assert abs(dot(c, b)) <= 4e-15

    @given(vectors, vectors, vectors)
    def test_det3_matches_triple_product(self, a, b, c):
        # the row arithmetic keeps the scalar operation order exactly
        scalar = Vec3(*a.tolist()).dot(Vec3(*b.tolist()).cross(Vec3(*c.tolist())))
        assert det3(a, b, c) == scalar
        assert abs(det3(a, b, c) - det3(b, c, a)) <= 1e-14
        assert abs(det3(a, b, c) + det3(b, a, c)) <= 1e-14

    @given(vectors)
    def test_normalized_has_unit_norm(self, v):
        assume(norm(v) > 1e-6)
        assert abs(norm(normalize(v)) - 1.0) <= 1e-12


class TestJet3:
    def test_is_finite_scans_all_orders(self):
        bad = np.array([[math.nan, 0.0, 0.0]])
        good = np.array([[1.0, 0.0, 0.0]])
        assert Jet3(good, good, good, good).is_finite().all()
        assert not Jet3(good, good, bad, good).is_finite().any()


def line(t):
    return np.stack([t, 0.0 * t, 0.0 * t], axis=-1)


class TestFdJet:
    def test_exact_on_cubic_polynomials(self):
        # the five-point formulas are exact through degree three
        def curve(t):
            return np.stack([t**3 - t, 2.0 * t * t, 5.0 - t], axis=-1)

        u0 = np.array([0.7])
        jet = fd_jet(curve, u0, 0.01)
        assert norm(jet.d0 - curve(u0))[0] == 0.0
        assert norm(jet.d1 - [3 * 0.7**2 - 1, 4 * 0.7, -1.0])[0] < 1e-11
        assert norm(jet.d2 - [6 * 0.7, 4.0, 0.0])[0] < 1e-9
        assert norm(jet.d3 - [6.0, 0.0, 0.0])[0] < 1e-7

    def test_helix_derivatives(self):
        def curve(t):
            return np.stack([np.cos(t), np.sin(t), t], axis=-1)

        u0 = 0.3
        jet = fd_jet(curve, np.array([u0]), 1e-3)
        assert norm(jet.d1 - [-math.sin(u0), math.cos(u0), 1.0])[0] < 1e-10
        assert norm(jet.d2 - [-math.cos(u0), -math.sin(u0), 0.0])[0] < 1e-8
        assert norm(jet.d3 - [math.sin(u0), -math.cos(u0), 0.0])[0] < 1e-5

    def test_non_finite_sample_names_parameter(self):
        def curve(t):
            return np.where((t > 1.05)[:, None], math.nan, line(t))

        with pytest.raises(NonFiniteSample) as err:
            fd_jet(curve, np.array([1.0]), 0.1)
        assert "1.1" in str(err.value)

    def test_one_sampler_call_covers_every_stencil(self):
        calls = []

        def curve(t):
            calls.append(len(t))
            return line(t)

        jet = fd_jet(curve, np.linspace(0.0, 1.0, 7), 0.01)
        assert calls == [35]
        assert jet.d1 == pytest.approx(np.tile([1.0, 0.0, 0.0], (7, 1)), abs=1e-12)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError):
            fd_jet(line, np.array([0.0]), step)


class TestDerivativeWeights:
    def test_equal_spacing_gives_the_five_point_stencil(self):
        weights = derivative_weights(np.array([0.0]), np.array([[-2.0, -1.0, 0.0, 1.0, 2.0]]).T)
        scaled = weights[..., 0] * np.array([[1.0], [12.0], [12.0], [2.0]])
        assert scaled == pytest.approx(np.array([[0, 0, 1, 0, 0], [1, -8, 0, 8, -1],
                                                 [-1, 16, -30, 16, -1], [-1, 2, 0, -2, 1]]),
                                       abs=1e-12)

    def test_exact_on_degree_seven_polynomials_over_uneven_nodes(self):
        rng = np.random.default_rng(7)
        nodes = np.sort(rng.uniform(-1.0, 1.0, (8, 5)), axis=0)
        z = rng.uniform(-1.0, 1.0, 5)
        poly = np.polynomial.Polynomial([0.3, -1.0, 0.5, 2.0, -0.7, 0.1, 0.4, -0.2])
        weights = derivative_weights(z, nodes)
        assert weights.shape == (4, 8, 5)
        for k in range(4):
            got = (weights[k] * poly(nodes)).sum(axis=0)
            assert got == pytest.approx(poly.deriv(k)(z), rel=1e-7, abs=1e-7), k


FROZEN = Jet3(np.array([[0.0, 0.0, 1.0]]), *(np.zeros((1, 3)),) * 3)


class TestS1Derivatives:
    """The arc length s1 of the director's trace enters only through the u-jet.

    A latitude circle has kappa = tan(beta) and kappa' = 0 at any speed; its
    acceleration feeds the <q_u, q_uu> term of kappa', which a dropped or
    mis-signed term would leave in.
    """

    def test_uniform_latitude_circle(self):
        for beta in (-0.4, math.pi / 6, math.pi / 4, 1.2):
            for phi in (0.0, 0.9):
                jet = latitude_jet(beta, phi)
                assert conical_curvature(jet)[0] == pytest.approx(math.tan(beta), abs=1e-13)
                assert kappa_prime(jet)[0] == pytest.approx(0.0, abs=1e-13)

    def test_nonuniform_speed(self):
        # the first case is phi(u) = u^2/2 + u at u = 0.5: speed phi' = 1.5, phi'' = 1
        for beta in (-0.4, math.pi / 6, math.pi / 4, 1.2):
            for speed, accel, jerk in ((1.5, 1.0, 0.0), (0.6, 0.0, 0.0),
                                       (0.8, -1.3, 2.0), (2.0, 0.7, -3.0)):
                jet = latitude_jet(beta, 0.625, speed, accel, jerk)
                case = (beta, speed, accel, jerk)
                assert conical_curvature(jet)[0] == pytest.approx(math.tan(beta), abs=1e-13), case
                assert kappa_prime(jet)[0] == pytest.approx(0.0, abs=1e-13), case

    def test_frozen_director_is_cylindrical(self):
        for curvature in (conical_curvature, kappa_prime):
            with pytest.raises(CylindricalDirector):
                curvature(FROZEN)


class TestReparamToS1:
    """Curvatures and the asymptotic normal read from any u equal those of the unit-speed run."""

    def test_round_trip_against_unit_speed_circle(self):
        u0 = 0.5
        phi = u0 * u0 / 2 + u0
        for beta in (0.0, math.pi / 4, 1.2):
            jet_u = latitude_jet(beta, phi, speed=u0 + 1.0, accel=1.0)
            unit = latitude_jet(beta, phi, speed=1.0 / math.cos(beta))
            assert conical_curvature(jet_u)[0] == pytest.approx(conical_curvature(unit)[0], abs=1e-13)
            assert kappa_prime(jet_u)[0] == pytest.approx(kappa_prime(unit)[0], abs=1e-13)
            assert norm(asymptotic_normal(jet_u) - asymptotic_normal(unit))[0] < 1e-15

    def test_frozen_director_is_cylindrical(self):
        base = Jet3(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]), *(np.zeros((1, 3)),) * 2)
        with pytest.raises(CylindricalDirector):
            asymptotic_normal(FROZEN)
        with pytest.raises(CylindricalDirector):
            striction_point(base, FROZEN)
