"""Curvature profiles, frame integration, and surface assembly."""

import math

import numpy as np
import pytest

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
    s1_derivatives,
)
from slantsurf.geometry import Vec3, dot, norm

EZ = Vec3(0, 0, 1)


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
                initial_frame=(Vec3(1, 0, 0), Vec3(0.1, 1, 0), Vec3(0, 0, 1)),
            )


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
            assert abs(q.norm() - 1.0) < 1e-14
            assert abs(h.norm() - 1.0) < 1e-14
            assert abs(a.norm() - 1.0) < 1e-14
            assert abs(q.dot(h)) < 1e-14
            assert abs(q.dot(a)) < 1e-14
            assert abs(h.dot(a)) < 1e-14

    def test_zero_curvature_traces_great_circle(self):
        prof = ConstantKappa(0.0, (0.0, 2.0 * math.pi))
        path = integrate_frame(GeneratorConfig(profile=prof, step=0.01))
        worst = 0.0
        for s, q, h, a in path:
            want = Vec3(math.cos(s), math.sin(s), 0.0)
            worst = max(worst, (q - want).norm())
            assert a == EZ  # the rotation axis never moves
        assert worst < 1e-8


class TestBuildSurface:
    def test_recomputed_curvature_round_trips(self):
        prof = ConstantSigma(0.5)
        config = GeneratorConfig(profile=prof, step=0.01)
        surface = build_surface(integrate_frame(config), config)
        u = np.array([-1.7, -0.9, 0.0, 0.33, 1.64])
        jet = surface.director(u)
        kap = conical_curvature(reparam_to_s1(jet, s1_derivatives(jet)))
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
