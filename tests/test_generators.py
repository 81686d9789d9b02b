"""Curvature profiles, frame integration, and surface assembly."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from conftest import Vec3, rodrigues
from slantsurf import (
    BadParams,
    ConstantKappa,
    ConstantSigma,
    GeneratorConfig,
    OutOfDomain,
    SampleGrid,
    TabulatedKappa,
    UnknownCatalogName,
    build_surface,
    catalog,
    catalog_names,
    conical_curvature,
    frame_samples,
    integrate_frame,
    kappa_of_s1,
    reparam_to_s1,
)
from slantsurf.geometry import dot, norm


def reference_march(config: GeneratorConfig) -> tuple[list, list, list, list]:
    """The RK4 march one Vec3 at a time: s1 nodes and the q, h, a rows."""
    profile = config.profile
    lo, hi = profile.domain
    q, h, a = (Vec3(*map(float, row)) for row in config.initial_frame)
    edge = 1e-12 * max(1.0, abs(hi), abs(lo))
    s_nodes, steps, s = [lo], [], lo
    while s < hi - edge:
        dt = min(config.step, hi - s)
        steps.append(dt)
        s = hi if hi - (s + dt) <= edge else s + dt
        s_nodes.append(s)
    stage_s = [(s, s + dt / 2.0, s + dt) for s, dt in zip(s_nodes, steps)]
    kappas = kappa_of_s1(profile, np.clip(np.array(stage_s), lo, hi)).tolist()

    def derivative(q, h, a, kappa):
        return (h, -q + a * kappa, h * (-kappa))

    qs, hs, as_ = [q], [h], [a]
    for dt, (k_start, k_half, k_end) in zip(steps, kappas):
        half = dt / 2.0
        k1 = derivative(q, h, a, k_start)
        k2 = derivative(q + k1[0] * half, h + k1[1] * half, a + k1[2] * half, k_half)
        k3 = derivative(q + k2[0] * half, h + k2[1] * half, a + k2[2] * half, k_half)
        k4 = derivative(q + k3[0] * dt, h + k3[1] * dt, a + k3[2] * dt, k_end)
        q = q + (k1[0] + k2[0] * 2.0 + k3[0] * 2.0 + k4[0]) * (dt / 6.0)
        h = h + (k1[1] + k2[1] * 2.0 + k3[1] * 2.0 + k4[1]) * (dt / 6.0)
        a = a + (k1[2] + k2[2] * 2.0 + k3[2] * 2.0 + k4[2]) * (dt / 6.0)
        # Gram-Schmidt in the order q, h, a
        q = q.normalized()
        h = (h - q * h.dot(q)).normalized()
        a = a - q * a.dot(q)
        a = (a - h * a.dot(h)).normalized()
        qs.append(q)
        hs.append(h)
        as_.append(a)
    rows = ([dataclasses.astuple(v) for v in vs] for vs in (qs, hs, as_))
    return (s_nodes, *rows)


# a right-handed orthonormal frame in general position
ROTATED = rodrigues(np.array([1.0, -2.0, 0.5]), 2.1)(np.eye(3))


def same_bits(got, want) -> bool:
    """Equal as float arrays, signed zeros included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def uneven_knots(draw):
    """2 to 12 strictly increasing knots, gaps 0.1 to 2 apart, and values in [-2, 2]."""
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
    start = draw(st.floats(-2.0, 2.0))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return np.cumsum([start, *gaps]).tolist(), values


class TestProfiles:
    def test_constant_kappa(self):
        prof = ConstantKappa(0.7, (0.0, 2.0))
        assert prof.kappa(1.3) == 0.7
        assert prof.kappa_prime(1.3) == 0.0
        assert prof.describe() == {"type": "constant", "kappa0": 0.7}

    def test_constant_sigma_values(self):
        prof = ConstantSigma(0.5)
        assert prof.kappa(0.0) == 0.0
        assert prof.kappa_prime(0.0) == 0.5
        # d*s1 = 0.5 puts kappa at tan(pi/6)
        assert prof.kappa(1.0) == pytest.approx(0.5773502691896258, rel=1e-15)

    def test_constant_sigma_clamps_near_pole(self):
        prof = ConstantSigma(1.0, (-1.8, 1.8))
        assert prof.domain == (-0.95, 0.95)

    def test_constant_sigma_rejects_zero_d(self):
        with pytest.raises(BadParams):
            ConstantSigma(0.0)

    def test_constant_sigma_rejects_collapsed_domain(self):
        with pytest.raises(BadParams):
            ConstantSigma(1.0, (2.0, 3.0))

    def test_tabulated_linear_is_exact(self):
        prof = TabulatedKappa((0.0, 1.5, 3.0), (0.0, 1.5, 3.0))
        # collinear knots: the natural spline is the straight line itself
        for s in (0.0, 0.4, 1.5, 2.2, 3.0):
            assert prof.kappa(s) == pytest.approx(s, abs=1e-14)
            assert prof.kappa_prime(s) == pytest.approx(1.0, abs=1e-14)
        assert prof.domain == (0.0, 3.0)

    @staticmethod
    def spline_pair(knots, values):
        """(kappa, kappa') of the profile and of scipy's natural CubicSpline,
        at 501 points across the knots and at the knots themselves."""
        prof = TabulatedKappa(tuple(knots), tuple(values))
        spline = CubicSpline(knots, values, bc_type="natural")
        s = np.concatenate((np.linspace(knots[0], knots[-1], 501), knots))
        return (prof.kappa(s), prof.kappa_prime(s)), (spline(s), spline(s, 1))

    def test_tabulated_linear_matches_scipy_exactly(self):
        ours, reference = self.spline_pair([0.0, 1.5, 3.0], [0.0, 1.5, 3.0])
        assert all(np.array_equal(a, b) for a, b in zip(ours, reference))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(uneven_knots())
    @example(([0.0, 1.0, 2.0, 3.0], [0.0, 0.8, -0.4, 0.6]))
    def test_tabulated_matches_scipy_natural_spline(self, knots_values):
        knots, values = knots_values
        ours, reference = self.spline_pair(knots, values)
        for mine, theirs in zip(ours, reference):
            # relative to the largest value: a few ulps from the solver's rounding
            assert np.max(np.abs(mine - theirs)) <= 1e-14 * np.max(np.abs(theirs))
        assert np.array_equal(ours[0][-len(knots):], values)  # every knot, both ends too

    def test_two_knot_profile_is_the_line(self):
        prof = TabulatedKappa((-1.0, 2.5), (0.3, -1.2))
        s = np.linspace(-1.0, 2.5, 101)
        slope = -1.5 / 3.5
        assert prof.kappa(s) == pytest.approx(0.3 + slope * (s + 1.0), abs=1e-15)
        assert prof.kappa_prime(s) == pytest.approx(np.full_like(s, slope), abs=1e-15)
        assert prof.kappa(2.5) == -1.2

    def test_tabulated_validation(self):
        with pytest.raises(BadParams):
            TabulatedKappa((0.0,), (1.0,))
        with pytest.raises(BadParams):
            TabulatedKappa((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(BadParams):
            TabulatedKappa((0.0, 1.0), (1.0, math.inf))

    def test_kappa_of_s1_domain(self):
        prof = ConstantKappa(1.0, (0.0, 1.0))
        assert kappa_of_s1(prof, 1.0 + 1e-10) == 1.0  # inside the slack
        with pytest.raises(OutOfDomain):
            kappa_of_s1(prof, 1.5)
        with pytest.raises(OutOfDomain):
            kappa_of_s1(prof, -0.1)


class TestGeneratorConfig:
    def test_step_must_resolve_domain(self):
        prof = ConstantKappa(0.0, (0.0, 1.0))
        with pytest.raises(BadParams):
            GeneratorConfig(profile=prof, step=0.1)  # only 10 steps
        GeneratorConfig(profile=prof, step=1.0 / 64.0)

    def test_rejects_bad_step(self):
        prof = ConstantKappa(0.0, (0.0, 1.0))
        for step in (0.0, -0.01, math.inf):
            with pytest.raises(BadParams):
                GeneratorConfig(profile=prof, step=step)

    def test_rejects_skew_initial_frame(self):
        prof = ConstantKappa(0.0, (0.0, 1.0))
        with pytest.raises(BadParams):
            GeneratorConfig(
                profile=prof,
                step=0.01,
                initial_frame=((1, 0, 0), (0.1, 1, 0), (0, 0, 1)),
            )

    def test_rejects_left_handed_initial_frame(self):
        # orthonormal, but its director would turn with -kappa
        prof = ConstantKappa(0.5, (0.0, 1.0))
        with pytest.raises(BadParams, match="right-handed"):
            GeneratorConfig(profile=prof, initial_frame=((1, 0, 0), (0, 1, 0), (0, 0, -1)))

    @pytest.mark.parametrize("frame", [
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ((1.0, 0.0, 0.0), (0.0, 1.0), (0.0, 0.0, 1.0)),
        ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)),
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, math.nan)),
        ((math.inf, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
        ((True, False, False), (False, True, False), (False, False, True)),
        np.eye(3)[:, :, None],
    ], ids=["two-rows", "short-row", "long-rows", "nan", "inf", "strings", "bools", "3x3x1"])
    def test_rejects_malformed_initial_frame(self, frame):
        prof = ConstantKappa(0.5, (0.0, 1.0))
        with pytest.raises(BadParams, match="3 rows of 3 finite numbers"):
            GeneratorConfig(profile=prof, initial_frame=frame)

    def test_accepts_any_right_handed_array_like(self):
        prof = ConstantKappa(0.5, (0.0, 1.0))
        for frame in (np.eye(3), ROTATED, ROTATED.tolist()):
            GeneratorConfig(profile=prof, initial_frame=frame)


class TestIntegrateFrame:
    def test_nodes_cover_domain(self):
        prof = ConstantKappa(0.3, (0.0, 2.0))
        path = integrate_frame(GeneratorConfig(profile=prof, step=0.03))
        s_nodes = [row[0] for row in path]
        assert s_nodes[0] == 0.0
        assert s_nodes[-1] == 2.0
        assert len(path) == len(s_nodes)

    def test_orthonormal_at_every_node(self):
        prof = ConstantSigma(0.5)
        path = integrate_frame(GeneratorConfig(profile=prof, step=0.01))
        for _, q, h, a in path:
            assert abs(norm(q) - 1.0) < 1e-14
            assert abs(norm(h) - 1.0) < 1e-14
            assert abs(norm(a) - 1.0) < 1e-14
            assert abs(dot(q, h)) < 1e-14
            assert abs(dot(q, a)) < 1e-14
            assert abs(dot(h, a)) < 1e-14

    def test_zero_curvature_traces_great_circle(self):
        prof = ConstantKappa(0.0, (0.0, 2.0 * math.pi))
        path = integrate_frame(GeneratorConfig(profile=prof, step=0.01))
        worst = 0.0
        for s, q, h, a in path:
            worst = max(worst, norm(q - [math.cos(s), math.sin(s), 0.0]))
            assert np.array_equal(a, [0, 0, 1])  # the rotation axis never moves
        assert worst < 1e-8

    @pytest.mark.parametrize("params", [
        {"profile": ConstantKappa(0.7, (0.0, 2.0)), "step": 0.013},
        {"profile": ConstantSigma(0.5)},
        {"profile": TabulatedKappa((0.0, 0.35, 1.1, 2.6, 3.0), (0.2, -0.5, 0.9, 0.1, 1.3))},
        {"profile": ConstantSigma(-0.4), "initial_frame": ROTATED},
    ], ids=["constant_kappa", "constant_sigma", "tabulated_uneven", "rotated_frame"])
    def test_bit_identical_to_the_vec3_reference(self, params):
        config = GeneratorConfig(**params)
        path = integrate_frame(config)
        want = reference_march(config)
        for name, column in zip(("s1", "q", "h", "a"), want):
            assert same_bits(getattr(path, name), column), name


class TestBuildSurface:
    def test_recomputed_curvature_round_trips(self):
        prof = ConstantSigma(0.5)
        config = GeneratorConfig(profile=prof, step=0.01)
        surface = build_surface(integrate_frame(config), config)
        u = np.array([-1.7, -0.9, 0.0, 0.33, 1.64])
        jet = surface.director(u)
        kap = conical_curvature(reparam_to_s1(jet))
        assert kap == pytest.approx(prof.kappa(u), abs=1e-12)

    def test_base_curve_is_its_own_striction(self):
        prof = TabulatedKappa((0.0, 1.0, 2.0, 3.0), (0.0, 0.8, -0.4, 1.1))
        config = GeneratorConfig(profile=prof, step=0.01, alpha=0.7)
        surface = build_surface(integrate_frame(config), config)
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 64))
        assert np.all(norm(samples.striction - surface.base_curve(samples.u).d0) < 1e-12)

    def test_parameter_is_spherical_arc_length(self):
        prof = ConstantKappa(1.2, (0.0, 2.0))
        config = GeneratorConfig(profile=prof, step=0.01)
        surface = build_surface(integrate_frame(config), config)
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 64))
        assert samples.s1[-1] == pytest.approx(2.0, abs=1e-12)

    def test_alpha_sets_base_tangent_direction(self):
        alpha = 0.6
        prof = ConstantKappa(0.4, (0.0, 2.0))
        config = GeneratorConfig(profile=prof, step=0.01, alpha=alpha)
        surface = build_surface(integrate_frame(config), config)
        u = np.array([1.1])
        d1 = surface.base_curve(u).d1
        jet = surface.director(u)
        q = jet.d0
        assert dot(d1, q)[0] == pytest.approx(math.cos(alpha), abs=1e-12)
        assert abs(dot(d1, jet.d1)[0]) < 1e-12  # no central-normal component
        assert norm(d1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_provenance_and_expected(self):
        prof = ConstantSigma(0.25)
        config = GeneratorConfig(profile=prof, step=0.01)
        surface = build_surface(integrate_frame(config), config)
        assert surface.provenance["kind"] == "prescribed_kappa"
        assert surface.provenance["profile"] == {"type": "constant_sigma", "d": 0.25}
        assert surface.expected["alpha"] == 0.0


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {
            "helicoid",
            "latitude_cone",
            "hyperboloid",
            "radial_plane",
            "constant_sigma",
            "tabulated_kappa",
        }

    def test_unknown_name(self):
        with pytest.raises(UnknownCatalogName):
            catalog("moebius")

    def test_latitude_cone_param_validation(self):
        for beta in (0.0, math.pi / 2, -0.3, None):
            with pytest.raises(BadParams):
                catalog("latitude_cone", {"beta": beta} if beta is not None else {})

    def test_hyperboloid_param_validation(self):
        with pytest.raises(BadParams):
            catalog("hyperboloid", {"r": 0.0})
        with pytest.raises(BadParams):
            catalog("hyperboloid", {"pitch": 0.0})

    def test_constant_sigma_requires_d(self):
        with pytest.raises(BadParams):
            catalog("constant_sigma")

    def test_expected_kappa_matches_samples(self, catalog_instances):
        for label, surface in catalog_instances:
            expected = surface.expected or {}
            if "kappa_const" not in expected:
                continue
            samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 64))
            assert samples.kappa == pytest.approx(expected["kappa_const"], abs=1e-9), label

    def test_custom_range_and_step(self):
        surface = catalog("constant_sigma",
                          {"d": 0.5, "s1_range": (-1.0, 1.0), "step": 0.005})
        assert surface.param_range == (-1.0, 1.0)
        assert surface.provenance["params"]["step"] == 0.005
