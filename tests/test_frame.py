"""Frame construction, invariants of the sampled frame, and striction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slantsurf import (
    CylindricalDirector,
    FrameTable,
    Jet3,
    NonFiniteSample,
    NonOrthogonalInput,
    RuledSurfaceSpec,
    SampleGrid,
    asymptotic_normal,
    catalog,
    central_normal,
    conical_curvature,
    darboux_vector,
    det3,
    frame_samples,
    kappa_prime,
    load_surface,
    sampled_spec_document,
    sigma,
    striction_point,
)
from conftest import Vec3, latitude_jet, traced_peak
from slantsurf.geometry import cross, dot, norm

TAN = {
    math.pi / 6: 0.5773502691896258,
    math.pi / 4: 1.0,
    math.pi / 3: 1.7320508075688772,
}


def at(*u: float) -> np.ndarray:
    return np.array(u)


class TestStriction:
    def test_helicoid_base_is_striction(self):
        surface = catalog("helicoid")
        u = 1.2
        c = striction_point(surface.base_curve(at(u)), surface.director(at(u)))
        assert norm(c - [0.0, 0.0, u])[0] < 1e-15

    def test_radial_plane_striction_is_origin(self):
        surface = catalog("radial_plane")
        u = at(0.0, 0.9, 2.5, 5.1)
        c = striction_point(surface.base_curve(u), surface.director(u))
        assert np.all(norm(c) < 1e-15)

    def test_hyperboloid_waist(self):
        surface = catalog("hyperboloid", {"r": 2.0, "pitch": 0.5})
        u = at(0.7)
        c = striction_point(surface.base_curve(u), surface.director(u))
        assert norm(c - surface.base_curve(u)[0])[0] < 1e-14

    def test_cylindrical_director_rejected(self):
        zero = np.zeros((1, 3))
        q = Jet3(np.array([[0.0, 0.0, 1.0]]), zero, zero, zero)
        with pytest.raises(CylindricalDirector):
            striction_point((zero, np.array([[1.0, 0.0, 0.0]])), q)


class TestNormals:
    def test_asymptotic_normal_of_latitude_circle(self):
        beta = math.pi / 6
        surface = catalog("latitude_cone", {"beta": beta})
        a = asymptotic_normal(surface.director(at(0.0)))
        assert norm(a - [-math.sin(beta), 0.0, math.cos(beta)])[0] < 1e-15

    def test_central_normal_completes_right_handed_frame(self):
        beta = math.pi / 6
        surface = catalog("latitude_cone", {"beta": beta})
        q = surface.director(at(0.0)).d0
        a = asymptotic_normal(surface.director(at(0.0)))
        h = central_normal(q, a)
        assert norm(h - [0.0, 1.0, 0.0])[0] < 1e-15
        assert norm(cross(q, h) - a)[0] < 1e-15

    def test_central_normal_validates_inputs(self):
        with pytest.raises(NonOrthogonalInput):
            central_normal(np.array([[1.0, 0.0, 0.0]]), np.array([[2.0, 0.0, 0.0]]))
        with pytest.raises(NonOrthogonalInput):
            central_normal(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))


class TestCurvatures:
    @pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_latitude_cone_conical_curvature(self, beta):
        surface = catalog("latitude_cone", {"beta": beta})
        kap = conical_curvature(surface.director(at(0.0, 1.1, 3.7)))
        assert kap == pytest.approx(TAN[beta], abs=1e-12)

    def test_two_curvature_forms_agree(self, catalog_instances):
        """det(q, q_u, q_uu) / |q_u|^3 equals <q_uu, a> / |q_u|^2."""
        for label, surface in catalog_instances:
            grid = SampleGrid.uniform(surface.param_range, 64)
            jet = surface.director(grid.u_values)
            det_form = conical_curvature(jet)
            proj_form = dot(jet.d2, asymptotic_normal(jet)) / dot(jet.d1, jet.d1)
            assert np.all(np.abs(det_form - proj_form) < 1e-9), label

    @given(st.floats(0.2, 5.0), st.floats(0.0, 6.0))
    def test_linear_scaling(self, c, phi):
        """Running the circle at a constant speed c changes neither kappa nor kappa'."""
        jet = latitude_jet(math.pi / 4, phi, speed=c)
        assert conical_curvature(jet)[0] == pytest.approx(1.0, abs=1e-13)
        assert kappa_prime(jet)[0] == pytest.approx(0.0, abs=1e-13)

    def test_kappa_prime_on_constant_sigma(self):
        surface = catalog("constant_sigma", {"d": 0.5})
        jet = surface.director(at(-1.5, -0.3, 0.0, 0.8, 1.6))
        kap = conical_curvature(jet)
        kp = kappa_prime(jet)
        assert kp == pytest.approx(0.5 * (1 + kap * kap) ** 1.5, rel=1e-9)

    def test_sigma_formula(self):
        assert sigma(0.0, 0.5) == 0.5
        assert sigma(1.0, 2.0 * 2.0**1.5) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4])
    def test_darboux_vector_of_cone(self, beta):
        surface = catalog("latitude_cone", {"beta": beta})
        u = at(0.4)
        q = surface.director(u).d0
        a = asymptotic_normal(surface.director(u))
        w = darboux_vector(TAN[beta], q, a)
        assert norm(w - [0.0, 0.0, 1.0 / math.cos(beta)])[0] < 1e-12
        assert norm(w)[0] == pytest.approx(math.sqrt(1 + TAN[beta] ** 2), abs=1e-12)


class TestSampleGrid:
    def test_uniform_hits_both_endpoints(self):
        grid = SampleGrid.uniform((0.0, 2.0 * math.pi), 17)
        assert grid.count == 17
        assert grid.u_values[0] == 0.0
        assert grid.u_values[-1] == 2.0 * math.pi

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            SampleGrid((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            SampleGrid((1.0,))


class TestFrameSamples:
    def test_orthonormal_right_handed_everywhere(self, catalog_instances):
        for label, surface in catalog_instances:
            t = frame_samples(surface, SampleGrid.uniform(surface.param_range, 64))
            assert np.all(np.abs(norm(t.q) - 1.0) < 1e-12), label
            assert np.all(np.abs(norm(t.h) - 1.0) < 1e-12), label
            assert np.all(np.abs(norm(t.a) - 1.0) < 1e-12), label
            assert np.all(np.abs(dot(t.q, t.h)) < 1e-12), label
            assert np.all(np.abs(dot(t.q, t.a)) < 1e-12), label
            assert np.all(np.abs(dot(t.h, t.a)) < 1e-12), label
            assert det3(t.q, t.h, t.a) == pytest.approx(1.0, abs=1e-12), label
            assert np.all(norm(t.darboux - darboux_vector(t.kappa, t.q, t.a)) < 1e-12)
            denom = (1.0 + t.kappa**2) ** 1.5
            assert t.sigma == pytest.approx(t.kappa_prime / denom, abs=1e-12)

    @pytest.mark.parametrize("beta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_s1_total_length_of_latitude_circle(self, beta):
        surface = catalog("latitude_cone", {"beta": beta})
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 128))
        assert samples.s1[0] == 0.0
        assert samples.s1[-1] == pytest.approx(2 * math.pi * math.cos(beta), abs=1e-9)

    def test_s1_is_monotone(self, catalog_instances):
        for label, surface in catalog_instances:
            samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 64))
            assert np.all(samples.s1[1:] > samples.s1[:-1]), label

    def test_s1_is_exact_for_constant_speed_directors(self, catalog_instances):
        # measured at most 7.5e-15 of the total (latitude_cone_pi6): the cumsum's rounding
        for label, surface in catalog_instances:
            samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 512))
            speed = norm(surface.director(samples.u[:1]).d1)[0]
            exact = speed * (samples.u - samples.u[0])
            assert np.max(np.abs(samples.s1 - exact)) <= 1e-14 * samples.s1[-1], label

    def test_s1_converges_at_fourth_order(self):
        # a latitude cone (beta 0.5) at u = t + 0.3 sin t, whose speed varies
        # along u: exact s1 = cos(beta) (t(u) - t(u0)).  Measured orders 4.1,
        # 4.1, 4.0, 4.0 from 32 to 512 rows and still 4.0 at 4096 rows, where
        # the error is 1.8e-14, about 20 ulp of the total length 5.4
        beta = 0.5

        def t_of(u):
            t = u
            for _ in range(40):  # Newton's method from t = u; converged long before
                t = t - (t + 0.3 * np.sin(t) - u) / (1.0 + 0.3 * np.cos(t))
            return t

        def director(u):
            t = t_of(u)
            t1 = (1.0 / (1.0 + 0.3 * np.cos(t)))[:, None]
            t2 = 0.3 * np.sin(t)[:, None] * t1**3
            t3 = 0.3 * np.cos(t)[:, None] * t1**4 + 0.9 * np.sin(t)[:, None] * t1**2 * t2
            c0 = math.cos(beta) * np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1)
            c1 = math.cos(beta) * np.stack([-np.sin(t), np.cos(t), 0.0 * t], axis=-1)
            return Jet3(c0 + [0.0, 0.0, math.sin(beta)], c1 * t1, -c0 * t1**2 + c1 * t2,
                        -c1 * t1**3 - 3.0 * c0 * t1 * t2 + c1 * t3)

        def base(u):
            zero = np.zeros((len(u), 3))
            return zero, zero

        surface = RuledSurfaceSpec(base, director, (0.0, 2.0 * math.pi), {"kind": "test"})

        def error(rows: int) -> float:
            samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, rows))
            exact = math.cos(beta) * (t_of(samples.u) - t_of(samples.u[:1]))
            return float(np.max(np.abs(samples.s1 - exact)))

        ladder = [error(rows) for rows in (32, 64, 128, 256, 512)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(ladder, ladder[1:])]
        assert min(orders) >= 3.5, orders
        assert error(4096) <= 5e-14

    def test_striction_curve_runs_orthogonal_to_director_motion(self, catalog_instances):
        """Central differences of the striction curve stay orthogonal to q'."""
        for label, surface in catalog_instances:
            samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 256))
            du = samples.u[1] - samples.u[0]
            c_dot = (samples.striction[2:] - samples.striction[:-2]) / (2.0 * du)
            q_dot = surface.director(samples.u[1:-1]).d1
            bound = 1e-3 * (1.0 + norm(c_dot) * norm(q_dot)) + 1e-12
            assert np.all(np.abs(dot(c_dot, q_dot)) < bound), label

    def test_cylindrical_surface_names_parameter(self):
        def base(u):
            return line(u), line(1.0 + 0.0 * u)

        def director(u):
            zero = 0.0 * line(u)
            return Jet3(zero + [0.0, 0.0, 1.0], zero, zero, zero)

        spec = RuledSurfaceSpec(base, director, (0.0, 1.0), {"kind": "test"})
        with pytest.raises(CylindricalDirector) as err:
            frame_samples(spec, SampleGrid.uniform((0.0, 1.0), 32))
        assert "u=0" in str(err.value)

    def test_columns_equal_the_per_sample_reference(self, catalog_instances):
        """Columnar arithmetic keeps the scalar operation order bit for bit."""
        sampled = load_surface(sampled_spec_document(catalog("constant_sigma", {"d": 0.5}), 64))
        for label, surface in [*catalog_instances, ("sampled", sampled)]:
            grid = SampleGrid.uniform(surface.param_range, 64)
            table = frame_samples(surface, grid)
            want = zip(*reference_frame(surface, grid.u_values))
            for field, column in zip(dataclasses.fields(FrameTable), want):
                rows = [dataclasses.astuple(v) if isinstance(v, Vec3) else v for v in column]
                assert np.array_equal(getattr(table, field.name), rows), (label, field.name)

    def test_jet_calls_do_not_grow_with_the_grid(self):
        surface = catalog("constant_sigma", {"d": 0.5})
        calls = []

        def counted(fn):
            def jet(u):
                calls.append(len(u))
                return fn(u)
            return jet

        spec = dataclasses.replace(surface, base_curve=counted(surface.base_curve),
                                   director=counted(surface.director))
        per_grid = []
        for count in (64, 512):
            calls.clear()
            frame_samples(spec, SampleGrid.uniform(spec.param_range, count))
            per_grid.append(len(calls))
        assert per_grid[0] == per_grid[1] == 2

    def test_generated_frame_peak_holds_no_whole_jet_it_has_read(self):
        # measured 1.35 MB; 2.17 MB with the (8, N, 3) Hermite gather, the
        # (4, N, 3) finiteness stack and every jet alive to the end
        surface = catalog("constant_sigma", {"d": 0.5})
        grid = SampleGrid.uniform(surface.param_range, 4096)
        _, peak = traced_peak(frame_samples, surface, grid)
        assert peak <= 1.6e6


def line(u):
    return np.stack([u, 0.0 * u, 0.0 * u], axis=-1)


def jet_rows(*columns: np.ndarray) -> list[tuple[Vec3, ...]]:
    """Row i of each (N, 3) column as a Vec3, one tuple per row."""
    return [tuple(Vec3(*r) for r in rows) for rows in zip(*(d.tolist() for d in columns))]


def reference_frame(surface, u_values) -> list[tuple]:
    """The frame one sample at a time in Vec3 arithmetic, from the same jets."""
    u = u_values.tolist()
    f_jets = jet_rows(*surface.base_curve(u_values))
    q_jet = surface.director(u_values)
    rows, s1, prev, prev_dp = [], 0.0, 0.0, 0.0
    for i, (q0, q1, q2, q3) in enumerate(jet_rows(q_jet.d0, q_jet.d1, q_jet.d2, q_jet.d3)):
        p = q1.norm()
        dp = q1.dot(q2) / p
        kap = q0.dot(q1.cross(q2)) / (p * p * p)
        kp = (q0.dot(q1.cross(q3)) / p - 3.0 * q1.dot(q2) * kap) / (p * p * p)
        a = q0.cross(q1) / p
        if i:
            du = u[i] - u[i - 1]
            s1 += du / 2.0 * (prev + p) + du * du / 12.0 * (prev_dp - dp)
        prev, prev_dp = p, dp
        f0, f1 = f_jets[i]
        striction = f0 - q0 * (q1.dot(f1) / (p * p))
        rows.append((u[i], s1, q0, a.cross(q0), a, kap, kp,
                     kp / (1.0 + kap * kap) ** 1.5, q0 * kap + a, striction))
    return rows


def spoiled_helicoid(director_filter):
    """Helicoid whose director rows pass through ``director_filter(u, rows)``."""
    helicoid = catalog("helicoid")

    def director(u):
        jet = helicoid.director(u)
        return Jet3(*(director_filter(u, d) for d in (jet.d0, jet.d1, jet.d2, jet.d3)))

    return dataclasses.replace(helicoid, director=director)


class TestFirstFault:
    """Errors name the smallest bad grid value."""

    grid = SampleGrid.uniform((0.0, 1.0), 32)

    def test_non_finite_director_names_first_grid_value(self):
        spec = spoiled_helicoid(lambda u, rows: np.where((u > 0.5)[:, None], math.nan, rows))
        with pytest.raises(NonFiniteSample) as err:
            frame_samples(spec, self.grid)
        first = float(self.grid.u_values[self.grid.u_values > 0.5][0])
        assert str(err.value) == f"surface jets are non-finite at u={first!r}"

    def test_stalled_director_names_first_grid_value(self):
        # the director stops turning for u >= 0.4: a cylindrical stretch whose
        # first grid value is 13/31
        helicoid = catalog("helicoid")

        def director(u):
            jet = helicoid.director(np.minimum(u, 0.4))
            still = (u >= 0.4)[:, None]
            return Jet3(jet.d0, *(np.where(still, 0.0, d) for d in (jet.d1, jet.d2, jet.d3)))

        spec = dataclasses.replace(helicoid, director=director)
        with pytest.raises(CylindricalDirector) as err:
            frame_samples(spec, self.grid)
        assert err.value.u == 0.4193548387096774
        assert "u=0.4193548387096774" in str(err.value)
