"""Curvature profiles, frame integration, and surface assembly."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from conftest import EXPECTED, Vec3
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
)
from slantsurf.generators import WORK_LIMIT, _director_jet, _PiecewisePoly, describe
from slantsurf.geometry import dot, norm


def reference_march(config: GeneratorConfig) -> tuple[list, list, list, list]:
    """The RK4 march one Vec3 at a time: s1 nodes and the q, h, a rows."""
    profile = config.profile
    lo, hi = profile.domain
    q, h, a = (Vec3(*row) for row in np.eye(3).tolist())
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


def same_bits(got, want) -> bool:
    """Equal as float arrays, signed zeros included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def constant_sigma_frame(s1: np.ndarray, d: float) -> tuple[np.ndarray, ...]:
    """The exact (q, h, a) of a ConstantSigma(d) march from the identity triple.

    With theta = arcsin(d s1), so that kappa = tan theta, the triple
    w = sin theta q + cos theta a, T = cos theta q - sin theta a and h obeys
    dv/dtheta = Omega x v for the fixed Omega = w/d + h: a rigid rotation
    about u = (w + d h)/sqrt(1 + d^2) by sqrt(1 + d^2)/d (theta - theta0).
    """
    theta = np.arcsin(d * s1)
    sin0, cos0 = math.sin(theta[0]), math.cos(theta[0])
    e1, e2, e3 = np.eye(3)
    w0, t0 = sin0 * e1 + cos0 * e3, cos0 * e1 - sin0 * e3
    root = math.sqrt(1.0 + d * d)
    axis = (w0 + d * e2) / root
    angle = (root / d * (theta - theta[0]))[:, None]

    def rotate(v):  # Rodrigues' formula, one row per angle
        return (v * np.cos(angle) + np.cross(axis, v) * np.sin(angle)
                + axis * dot(axis, v) * (1.0 - np.cos(angle)))

    w, t, h = rotate(w0), rotate(t0), rotate(e2)
    sin, cos = np.sin(theta)[:, None], np.cos(theta)[:, None]
    return sin * w + cos * t, h, cos * w - sin * t


def constant_sigma_march_error(d: float, step: float) -> float:
    """Largest |delta| of q, h and a between the RK4 march and the closed form, at the nodes."""
    path = integrate_frame(GeneratorConfig(ConstantSigma(d), step=step))
    exact = constant_sigma_frame(np.array(path.s1), d)
    return max(np.abs(got - want).max() for got, want in zip((path.q, path.h, path.a), exact))


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
        assert describe(prof) == {"type": "constant", "kappa0": 0.7}

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

    def test_step_bounded_by_the_work_limit(self):
        # only configs are built here: nothing is integrated at the bound
        prof = ConstantSigma(0.5, (-1.8, 1.8))
        bound = 3.6 / WORK_LIMIT
        GeneratorConfig(profile=prof, step=bound)
        with pytest.raises(BadParams, match=r"step .* too fine: at most 1048576 steps"):
            GeneratorConfig(profile=prof, step=math.nextafter(bound, 0.0))


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

    # measured 1.85e-9 (d 0.5), 2.9e-10 (d 0.3) and 4.5e-10 (d -0.4) over s1 in [-1.8, 1.8]
    @pytest.mark.parametrize("d", [0.5, 0.3, -0.4])
    def test_constant_sigma_matches_the_closed_form_rotation(self, d):
        assert constant_sigma_march_error(d, 0.01) <= 1e-8

    def test_constant_sigma_error_falls_at_fourth_order(self):
        # measured 2.95e-8, 1.85e-9, 1.16e-10, 7.19e-12 and 5.01e-13 from step 0.02
        # to 0.00125: orders 3.99, 4.00, 4.01, 3.84.  Rounding then sets a floor of
        # 2.3e-13 at 0.000625 (2.6e-13 at 0.0003125)
        ladder = [constant_sigma_march_error(0.5, step)
                  for step in (0.02, 0.01, 0.005, 0.0025, 0.00125)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(ladder, ladder[1:])]
        assert min(orders) >= 3.5, orders
        assert constant_sigma_march_error(0.5, 0.000625) <= 1e-12

    @pytest.mark.parametrize("params", [
        {"profile": ConstantKappa(0.7, (0.0, 2.0)), "step": 0.013},
        {"profile": ConstantSigma(0.5)},
        {"profile": TabulatedKappa((0.0, 0.35, 1.1, 2.6, 3.0), (0.2, -0.5, 0.9, 0.1, 1.3))},
    ], ids=["constant_kappa", "constant_sigma", "tabulated_uneven"])
    def test_bit_identical_to_the_vec3_reference(self, params):
        config = GeneratorConfig(**params)
        path = integrate_frame(config)
        want = reference_march(config)
        for name, column in zip(("s1", "q", "h", "a"), want):
            assert same_bits(getattr(path, name), column), name


    def test_a_zero_norm_divides_to_nan_as_numpy_does(self):
        # at kappa0 5e8 one step leaves a vector of norm exactly 0 for Gram-Schmidt,
        # where the reference's normalize raises; rows before it stay finite
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # as cli.run
            path = integrate_frame(GeneratorConfig(ConstantKappa(5e8, (0.0, 2.0))))
        finite = [np.isfinite(column).all(axis=1) for column in (path.q, path.h, path.a)]
        assert [int(np.argmin(rows)) for rows in finite] == [6, 6, 5]
        assert not any(rows[7:].any() for rows in finite)


class TestBuildSurface:
    def test_recomputed_curvature_round_trips(self):
        prof = ConstantSigma(0.5)
        config = GeneratorConfig(profile=prof, step=0.01)
        surface = build_surface(integrate_frame(config), config)
        u = np.array([-1.7, -0.9, 0.0, 0.33, 1.64])
        jet = surface.director(u)
        kap = conical_curvature(jet)
        assert kap == pytest.approx(prof.kappa(u), abs=1e-12)

    def test_base_curve_is_its_own_striction(self):
        prof = TabulatedKappa((0.0, 1.0, 2.0, 3.0), (0.0, 0.8, -0.4, 1.1))
        config = GeneratorConfig(profile=prof, step=0.01, alpha=0.7)
        surface = build_surface(integrate_frame(config), config)
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 64))
        assert np.all(norm(samples.striction - surface.base_curve(samples.u)[0]) < 1e-12)

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
        _, d1 = surface.base_curve(u)
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
        assert surface.provenance["alpha"] == EXPECTED["constant_sigma_025"]["alpha"]


def exact_hermite_inverse() -> list[list[Fraction]]:
    """Inverse of the t = 1 conditions on c4..c7: sum over k of C(k, j) c_k, j = 0..3."""
    rows = [[Fraction(math.comb(k, j)) for k in range(4, 8)]
            + [Fraction(int(i == j)) for i in range(4)] for j in range(4)]
    for col in range(4):  # Gauss-Jordan; the diagonal never vanishes here
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(4):
            if r != col:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[4:] for row in rows]


def taylor_at_one(coeffs: list) -> list:
    """Taylor coefficients at t = 1 of the polynomial with ``coeffs`` at t = 0
    (repeated synthetic division)."""
    shifted = list(coeffs)
    for j in range(len(shifted) - 1):
        for k in range(len(shifted) - 2, j - 1, -1):
            shifted[k] += shifted[k + 1]
    return shifted


class TestHermiteInterpolant:
    """The generated director's degree-7 interpolant against exact rational
    Hermite interpolation of the same node jets (Stoer and Bulirsch, §2.1.5).

    On the 300 intervals of constant_sigma d = 0.5 over [-1.5, 1.5] at step
    0.01 the measured worst errors are 1.5e-15 for the node jets (value and
    three u-derivatives at both ends, relative to 1 + |jet|), 5.6e-17 for
    the value and 2.2e-16 for d/du at one point inside each interval, so
    the bounds leave margins of 65x, 36x and 45x.  Coefficients 4-7 from one
    8-column integer matrix on both ends' Taylor coefficients, which cancels
    84 a_0 against 84 b_0, miss all three: 2.4e-6, 1.5e-14 and 8.3e-12.
    """

    NODE_BOUND, VALUE_BOUND, SLOPE_BOUND = 1e-13, 2e-15, 1e-14

    def test_matches_exact_rational_hermite(self):
        profile = ConstantSigma(0.5, (-1.5, 1.5))
        frames = integrate_frame(GeneratorConfig(profile, step=0.01))
        s = np.array(frames.s1)
        kap, kp = profile.kappa(s)[:, None], profile.kappa_prime(s)[:, None]
        q, h, a = frames.q, frames.h, frames.a
        jets = _director_jet(q, h, a, kap, kp)
        poly = _PiecewisePoly(s, jets)
        # one point inside each interval, at t from 0.1 to 0.9 by interval
        t_float = 0.1 + 0.8 * (np.arange(len(s) - 1) % 9) / 8.0
        u = s[:-1] + t_float * (s[1:] - s[:-1])
        value, slope = poly.value_and_derivative(u)
        inverse = exact_hermite_inverse()
        node = inside = inside_slope = 0.0
        for i in range(len(s) - 1):
            # Taylor scales w^k / k! in the interpolant's own float width and in the exact one
            width, exact_width = Fraction(s[i + 1] - s[i]), Fraction(s[i + 1]) - Fraction(s[i])
            scale = [width ** k / math.factorial(k) for k in range(4)]
            exact_scale = [exact_width ** k / math.factorial(k) for k in range(4)]
            t = (Fraction(u[i]) - Fraction(s[i])) / exact_width
            for c in range(3):
                left = [Fraction(jets[k][i, c]) for k in range(4)]
                right = [Fraction(jets[k][i + 1, c]) for k in range(4)]
                coeffs = [Fraction(x) for x in poly.coeffs[:, i, c]]
                at_right = taylor_at_one(coeffs)
                for j in range(4):
                    for got, want in ((coeffs[j], left[j]), (at_right[j], right[j])):
                        err = abs(float(got - want * scale[j])) / float(scale[j])
                        node = max(node, err / (1.0 + abs(float(want))))
                # exact Hermite in the exact t: the left Taylor cubic plus the
                # inverse conditions on what it misses at t = 1
                lo = [left[k] * exact_scale[k] for k in range(4)]
                miss = [right[j] * exact_scale[j] - x for j, x in enumerate(taylor_at_one(lo))]
                ref = lo + [sum(m * x for m, x in zip(row, miss)) for row in inverse]
                p = dp = Fraction(0)
                for k in range(7, -1, -1):
                    dp = dp * t + p
                    p = p * t + ref[k]
                inside = max(inside, abs(float(p - Fraction(value[i, c]))))
                inside_slope = max(inside_slope,
                                   abs(float(dp / exact_width - Fraction(slope[i, c]))))
        assert node <= self.NODE_BOUND
        assert inside <= self.VALUE_BOUND
        assert inside_slope <= self.SLOPE_BOUND

    @staticmethod
    def director_poly_and_points() -> tuple[_PiecewisePoly, np.ndarray]:
        """A generated director's interpolant, and its nodes, interior points and
        points along the last interval, both ends included."""
        profile = ConstantSigma(0.5, (-1.5, 1.5))
        frames = integrate_frame(GeneratorConfig(profile, step=0.01))
        s = np.array(frames.s1)
        kap, kp = profile.kappa(s)[:, None], profile.kappa_prime(s)[:, None]
        poly = _PiecewisePoly(s, _director_jet(frames.q, frames.h, frames.a, kap, kp))
        inside = s[:-1] + np.linspace(0.05, 0.95, 7)[:, None] * (s[1:] - s[:-1])
        last = s[-2] + np.linspace(0.0, 1.0, 9) * (s[-1] - s[-2])
        return poly, np.concatenate((s, inside.ravel(), last))

    def test_horner_by_degree_matches_the_whole_gather_bit_for_bit(self):
        poly, u = self.director_poly_and_points()
        for got, want in zip(poly.value_and_derivative(u), gathered_horner(poly, u)):
            assert got.shape == want.shape == (len(u), 3)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_value_alone_matches_value_and_derivative_bit_for_bit(self):
        poly, u = self.director_poly_and_points()
        got, want = poly.value(u), poly.value_and_derivative(u)[0]
        assert got.shape == want.shape == (len(u), 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def gathered_horner(poly: _PiecewisePoly, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``value_and_derivative`` as it read with one (8, M, 3) gather of the coefficients."""
    i = np.clip(np.searchsorted(poly.s_nodes, u, side="right") - 1, 0, len(poly.s_nodes) - 2)
    width = poly.s_nodes[i + 1] - poly.s_nodes[i]
    t = ((u - poly.s_nodes[i]) / width)[:, None]
    coeffs = poly.coeffs[:, i]
    acc = np.zeros(coeffs.shape[1:])
    dacc = np.zeros(coeffs.shape[1:])
    for c in coeffs[::-1]:
        dacc = dacc * t + acc
        acc = acc * t + c
    return acc, dacc / width[:, None]


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
            expected = EXPECTED[label]
            if "kappa_const" not in expected:
                continue
            samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 64))
            assert samples.kappa == pytest.approx(expected["kappa_const"], abs=1e-9), label

    def test_custom_range_and_step(self):
        surface = catalog("constant_sigma",
                          {"d": 0.5, "s1_range": (-1.0, 1.0), "step": 0.005})
        assert surface.param_range == (-1.0, 1.0)
        assert surface.provenance["params"]["step"] == 0.005
