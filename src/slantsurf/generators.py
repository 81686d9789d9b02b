"""Generation of ruled surfaces with prescribed conical curvature.

The frame motion is a linear ODE once kappa(s1) is given, so a surface with
any prescribed conical curvature profile can be produced by integrating

    q' = h,    h' = -q + kappa*a,    a' = -kappa*h

with classical fixed-step RK4, re-orthonormalizing the triple after every
step (Gram-Schmidt in the order q, h, a).  A base curve that is its own
striction curve follows by quadrature of c' = cos(alpha) q + sin(alpha) a:
that derivative is orthogonal to q' for every fixed angle alpha, which is
exactly the striction property.

Between nodes the director and base curve are evaluated from two-point
Taylor interpolants (degree 7, matching value and three derivatives at both
ends, all known from the frame equations).  The glued interpolant is C^3
across nodes, so sampled derivatives up to third order converge cleanly and
the returned jets satisfy the frame equations identically at the query
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_right

from .frame import RuledSurfaceSpec
from .geometry import EX, EY, EZ, ZERO, Jet3, Vec3

__all__ = [
    "OutOfDomain",
    "UnknownCatalogName",
    "BadParams",
    "ConstantKappa",
    "ConstantSigma",
    "TabulatedKappa",
    "KappaProfile",
    "GeneratorConfig",
    "FramePath",
    "kappa_of_s1",
    "integrate_frame",
    "build_surface",
    "catalog",
    "catalog_names",
]

DOMAIN_SLACK = 1e-9
# keep |d * s1| away from the profile's pole
SIGMA_CLAMP = 0.95
MIN_STEPS_PER_DOMAIN = 64


class OutOfDomain(ValueError):
    """A curvature profile was queried outside its s1 domain."""


class UnknownCatalogName(KeyError):
    """No catalog entry under that name."""


class BadParams(ValueError):
    """Catalog or generator parameters violate their constraints."""


@dataclass(frozen=True)
class ConstantKappa:
    """kappa(s1) = kappa0 on a fixed interval."""

    kappa0: float
    domain: tuple[float, float] = (0.0, 2.0 * math.pi)

    def __post_init__(self) -> None:
        _require_interval(self.domain)

    def kappa(self, s1: float) -> float:
        return self.kappa0

    def kappa_prime(self, s1: float) -> float:
        return 0.0

    def describe(self) -> dict:
        return {"type": "constant", "kappa0": self.kappa0}


@dataclass(frozen=True)
class ConstantSigma:
    """Profile whose slant invariant sigma is the constant d.

    kappa(s1) = d*s1 / sqrt(1 - (d*s1)^2) satisfies
    kappa' = d * (1 + kappa^2)^(3/2) and blows up at |d*s1| = 1; the domain
    is clamped so |d*s1| never exceeds 0.95.
    """

    d: float
    domain: tuple[float, float] = (-1.8, 1.8)

    def __post_init__(self) -> None:
        if self.d == 0.0 or not math.isfinite(self.d):
            raise BadParams("constant-sigma profiles need a non-zero finite d")
        _require_interval(self.domain)
        limit = SIGMA_CLAMP / abs(self.d)
        lo, hi = max(self.domain[0], -limit), min(self.domain[1], limit)
        if not hi > lo:
            raise BadParams(f"domain {self.domain!r} collapses under the |d*s1| clamp")
        object.__setattr__(self, "domain", (lo, hi))

    def kappa(self, s1: float) -> float:
        t = self.d * s1
        return t / math.sqrt(1.0 - t * t)

    def kappa_prime(self, s1: float) -> float:
        t = self.d * s1
        return self.d / (1.0 - t * t) ** 1.5

    def describe(self) -> dict:
        return {"type": "constant_sigma", "d": self.d}


@dataclass(frozen=True)
class TabulatedKappa:
    """Natural cubic spline through (s1, kappa) knots."""

    s1_knots: tuple[float, ...]
    kappa_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.s1_knots) < 2 or len(self.s1_knots) != len(self.kappa_values):
            raise BadParams("need at least two knots and matching value count")
        for left, right in zip(self.s1_knots, self.s1_knots[1:]):
            if not right > left:
                raise BadParams("s1 knots must be strictly increasing")
        if not all(math.isfinite(v) for v in self.kappa_values):
            raise BadParams("kappa knot values must be finite")
        from scipy.interpolate import CubicSpline  # ~0.7 s import: load only here

        spline = CubicSpline(self.s1_knots, self.kappa_values, bc_type="natural")
        object.__setattr__(self, "_spline", spline)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.s1_knots[0], self.s1_knots[-1])

    def kappa(self, s1: float) -> float:
        return float(self._spline(s1))

    def kappa_prime(self, s1: float) -> float:
        return float(self._spline(s1, 1))

    def describe(self) -> dict:
        return {
            "type": "tabulated",
            "s1_knots": list(self.s1_knots),
            "kappa_values": list(self.kappa_values),
        }


KappaProfile = ConstantKappa | ConstantSigma | TabulatedKappa


def _require_interval(domain: tuple[float, float]) -> None:
    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise BadParams(f"bad s1 domain {domain!r}")


def kappa_of_s1(profile: KappaProfile, s1: float) -> float:
    """Evaluate a profile, rejecting queries outside its domain."""
    lo, hi = profile.domain
    if s1 < lo - DOMAIN_SLACK or s1 > hi + DOMAIN_SLACK:
        raise OutOfDomain(f"s1={s1!r} outside profile domain [{lo!r}, {hi!r}]")
    return profile.kappa(min(max(s1, lo), hi))


def _kappa_prime_clamped(profile: KappaProfile, s1: float) -> float:
    lo, hi = profile.domain
    return profile.kappa_prime(min(max(s1, lo), hi))


@dataclass(frozen=True)
class GeneratorConfig:
    """How to integrate a curvature profile into a surface."""

    profile: KappaProfile
    step: float = 0.01
    alpha: float = 0.0  # angle of the base-curve tangent in the (q, a) plane
    initial_frame: tuple[Vec3, Vec3, Vec3] = (EX, EY, EZ)

    def __post_init__(self) -> None:
        lo, hi = self.profile.domain
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise BadParams("step must be positive and finite")
        if self.step > (hi - lo) / MIN_STEPS_PER_DOMAIN:
            raise BadParams(
                f"step {self.step!r} too coarse: need at least "
                f"{MIN_STEPS_PER_DOMAIN} steps across [{lo!r}, {hi!r}]"
            )
        q0, h0, a0 = self.initial_frame
        worst = max(
            abs(q0.norm() - 1.0),
            abs(h0.norm() - 1.0),
            abs(a0.norm() - 1.0),
            abs(q0.dot(h0)),
            abs(q0.dot(a0)),
            abs(h0.dot(a0)),
        )
        if worst > 1e-12:
            raise BadParams("initial frame must be orthonormal to 1e-12")


def _gram_schmidt(q: Vec3, h: Vec3, a: Vec3) -> tuple[Vec3, Vec3, Vec3]:
    q = q.normalized()
    h = (h - q * h.dot(q)).normalized()
    a = a - q * a.dot(q)
    a = (a - h * a.dot(h)).normalized()
    return q, h, a


def _frame_derivative(q: Vec3, h: Vec3, a: Vec3, kappa: float) -> tuple[Vec3, Vec3, Vec3]:
    return (h, -q + a * kappa, h * (-kappa))


@dataclass
class FramePath:
    """Frame triples at the RK4 nodes, iterable as (s1, q, h, a) rows."""

    s1: list[float]
    q: list[Vec3]
    h: list[Vec3]
    a: list[Vec3]
    profile: KappaProfile

    def __iter__(self):
        return iter(zip(self.s1, self.q, self.h, self.a))

    def __len__(self) -> int:
        return len(self.s1)


def integrate_frame(config: GeneratorConfig) -> FramePath:
    """March the frame ODE across the profile domain with classical RK4.

    The triple is re-orthonormalized after every step; the final (possibly
    shorter) step lands exactly on the domain's upper end.
    """
    profile = config.profile
    lo, hi = profile.domain
    q, h, a = config.initial_frame

    def rhs(s: float, q: Vec3, h: Vec3, a: Vec3) -> tuple[Vec3, Vec3, Vec3]:
        return _frame_derivative(q, h, a, kappa_of_s1(profile, min(max(s, lo), hi)))

    edge = 1e-12 * max(1.0, abs(hi), abs(lo))
    s_nodes = [lo]
    qs, hs, as_ = [q], [h], [a]
    s = lo
    while s < hi - edge:
        dt = min(config.step, hi - s)
        half = dt / 2.0
        k1 = rhs(s, q, h, a)
        k2 = rhs(s + half, q + k1[0] * half, h + k1[1] * half, a + k1[2] * half)
        k3 = rhs(s + half, q + k2[0] * half, h + k2[1] * half, a + k2[2] * half)
        k4 = rhs(s + dt, q + k3[0] * dt, h + k3[1] * dt, a + k3[2] * dt)
        q = q + (k1[0] + k2[0] * 2.0 + k3[0] * 2.0 + k4[0]) * (dt / 6.0)
        h = h + (k1[1] + k2[1] * 2.0 + k3[1] * 2.0 + k4[1]) * (dt / 6.0)
        a = a + (k1[2] + k2[2] * 2.0 + k3[2] * 2.0 + k4[2]) * (dt / 6.0)
        q, h, a = _gram_schmidt(q, h, a)
        s = hi if hi - (s + dt) <= edge else s + dt
        s_nodes.append(s)
        qs.append(q)
        hs.append(h)
        as_.append(a)
    return FramePath(s_nodes, qs, hs, as_, profile)


def _two_point_taylor(width: float, left: tuple, right: tuple) -> list[float]:
    """Monomial coefficients (ascending, in t = (u - u0)/width) of the degree-7
    polynomial matching value and three derivatives at both interval ends.

    ``left`` and ``right`` are (value, d1, d2, d3) with derivatives taken
    against u; they are rescaled to the unit interval internally.
    """
    scale = (1.0, width, width * width / 2.0, width**3 / 6.0)
    f0 = [left[k] * scale[k] for k in range(4)]
    f1 = [right[k] * scale[k] for k in range(4)]
    nodes = (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    # Hermite divided-difference table with repeated nodes
    table = [[0.0] * 8 for _ in range(8)]
    for i in range(8):
        table[i][0] = f0[0] if nodes[i] == 0.0 else f1[0]
    for j in range(1, 8):
        for i in range(j, 8):
            if nodes[i] == nodes[i - j]:
                table[i][j] = f0[j] if nodes[i] == 0.0 else f1[j]
            else:
                table[i][j] = (table[i][j - 1] - table[i - 1][j - 1]) / (
                    nodes[i] - nodes[i - j]
                )
    newton = [table[k][k] for k in range(8)]
    # expand the Newton form into monomial coefficients
    mono = [newton[7]]
    for k in range(6, -1, -1):
        raised = [0.0] * (len(mono) + 1)
        for deg, coef in enumerate(mono):
            raised[deg + 1] += coef
            raised[deg] -= coef * nodes[k]
        raised[0] += newton[k]
        mono = raised
    return mono


class _PiecewisePoly:
    """Per-interval degree-7 vector polynomials over the node grid."""

    def __init__(self, s_nodes: list[float], coeffs: list[tuple[list[float], list[float], list[float]]]):
        self.s_nodes = s_nodes
        self.coeffs = coeffs

    def _locate(self, u: float) -> tuple[int, float, float]:
        i = bisect_right(self.s_nodes, u) - 1
        i = min(max(i, 0), len(self.s_nodes) - 2)
        width = self.s_nodes[i + 1] - self.s_nodes[i]
        return i, (u - self.s_nodes[i]) / width, width

    def value(self, u: float) -> Vec3:
        i, t, _ = self._locate(u)
        out = []
        for comp in self.coeffs[i]:
            acc = 0.0
            for c in reversed(comp):
                acc = acc * t + c
            out.append(acc)
        return Vec3(*out)

    def value_and_derivative(self, u: float) -> tuple[Vec3, Vec3]:
        i, t, width = self._locate(u)
        vals, ders = [], []
        for comp in self.coeffs[i]:
            acc = 0.0
            dacc = 0.0
            for c in reversed(comp):
                dacc = dacc * t + acc
                acc = acc * t + c
            vals.append(acc)
            ders.append(dacc / width)
        return Vec3(*vals), Vec3(*ders)


def _vector_poly(s_nodes: list[float], jets: list[tuple[Vec3, Vec3, Vec3, Vec3]]) -> _PiecewisePoly:
    coeffs = []
    for i in range(len(s_nodes) - 1):
        width = s_nodes[i + 1] - s_nodes[i]
        interval = []
        for pick in (lambda v: v.x, lambda v: v.y, lambda v: v.z):
            left = tuple(pick(jets[i][k]) for k in range(4))
            right = tuple(pick(jets[i + 1][k]) for k in range(4))
            interval.append(_two_point_taylor(width, left, right))
        coeffs.append(tuple(interval))
    return _PiecewisePoly(s_nodes, coeffs)


class _FrameInterpolant:
    """Orthonormal frame anywhere in the domain, from the director interpolant."""

    def __init__(self, frames: FramePath):
        profile = frames.profile
        jets = []
        for s, q, h, a in frames:
            kap = kappa_of_s1(profile, s)
            kp = _kappa_prime_clamped(profile, s)
            jets.append(
                (q, h, -q + a * kap, h * (-(1.0 + kap * kap)) + a * kp)
            )
        self._poly = _vector_poly(frames.s1, jets)

    def frame_at(self, u: float) -> tuple[Vec3, Vec3, Vec3]:
        p, dp = self._poly.value_and_derivative(u)
        q = p.normalized()
        h = (dp - q * dp.dot(q)).normalized()
        return q, h, q.cross(h)

    def director_value(self, u: float) -> Vec3:
        return self._poly.value(u).normalized()


def build_surface(frames: FramePath, config: GeneratorConfig) -> RuledSurfaceSpec:
    """Assemble a ruled surface from an integrated frame path.

    The base curve c(s1) = integral of cos(alpha) q + sin(alpha) a starts at
    the origin and is accumulated with per-interval Simpson quadrature
    (midpoint frames from the interpolant), so it is its own striction curve
    up to the integration error.  The returned spec is parametrized by
    u = s1 and exposes jets built from the frame equations and the exact
    profile values.
    """
    profile = frames.profile
    interp = _FrameInterpolant(frames)
    cos_a, sin_a = math.cos(config.alpha), math.sin(config.alpha)

    def tangent(q: Vec3, a: Vec3) -> Vec3:
        return q * cos_a + a * sin_a

    c_nodes = [ZERO]
    c = ZERO
    for i in range(len(frames) - 1):
        s0, s1 = frames.s1[i], frames.s1[i + 1]
        g0 = tangent(frames.q[i], frames.a[i])
        g1 = tangent(frames.q[i + 1], frames.a[i + 1])
        qm, _, am = interp.frame_at(0.5 * (s0 + s1))
        c = c + (g0 + tangent(qm, am) * 4.0 + g1) * ((s1 - s0) / 6.0)
        c_nodes.append(c)

    def base_jet_of_frame(q: Vec3, h: Vec3, a: Vec3, kap: float, kp: float, c_val: Vec3) -> Jet3:
        scale = cos_a - kap * sin_a
        return Jet3(
            d0=c_val,
            d1=tangent(q, a),
            d2=h * scale,
            d3=h * (-kp * sin_a) + (-q + a * kap) * scale,
            param="u",
        )

    c_node_jets = []
    for i, (s, q, h, a) in enumerate(frames):
        kap = kappa_of_s1(profile, s)
        kp = _kappa_prime_clamped(profile, s)
        jet = base_jet_of_frame(q, h, a, kap, kp, c_nodes[i])
        c_node_jets.append((jet.d0, jet.d1, jet.d2, jet.d3))
    c_poly = _vector_poly(frames.s1, c_node_jets)

    def director(u: float) -> Jet3:
        q, h, a = interp.frame_at(u)
        kap = kappa_of_s1(profile, u)
        kp = _kappa_prime_clamped(profile, u)
        return Jet3(
            d0=q,
            d1=h,
            d2=-q + a * kap,
            d3=h * (-(1.0 + kap * kap)) + a * kp,
            param="u",
        )

    def base_curve(u: float) -> Jet3:
        q, h, a = interp.frame_at(u)
        kap = kappa_of_s1(profile, u)
        kp = _kappa_prime_clamped(profile, u)
        return base_jet_of_frame(q, h, a, kap, kp, c_poly.value(u))

    return RuledSurfaceSpec(
        base_curve=base_curve,
        director=director,
        param_range=profile.domain,
        provenance={
            "kind": "prescribed_kappa",
            "profile": profile.describe(),
            "alpha": config.alpha,
            "step": config.step,
        },
        expected={"profile": profile, "alpha": config.alpha},
    )


def _circle_director(height: float, radius: float):
    """Director jets for the latitude circle q = (radius cos u, radius sin u, height)."""

    def jet(u: float) -> Jet3:
        cu, su = math.cos(u), math.sin(u)
        return Jet3(
            d0=Vec3(radius * cu, radius * su, height),
            d1=Vec3(-radius * su, radius * cu, 0.0),
            d2=Vec3(-radius * cu, -radius * su, 0.0),
            d3=Vec3(radius * su, -radius * cu, 0.0),
            param="u",
        )

    return jet


def _constant_curve(point: Vec3):
    def jet(u: float) -> Jet3:
        return Jet3(point, ZERO, ZERO, ZERO, "u")

    return jet


def _helicoid() -> RuledSurfaceSpec:
    def base(u: float) -> Jet3:
        return Jet3(Vec3(0.0, 0.0, u), EZ, ZERO, ZERO, "u")

    return RuledSurfaceSpec(
        base_curve=base,
        director=_circle_director(0.0, 1.0),
        param_range=(0.0, 2.0 * math.pi),
        provenance={"kind": "catalog", "name": "helicoid", "params": {}},
        expected={
            "kappa_const": 0.0,
            "darboux_const": EZ,
            "verdicts": {
                "q": False,
                "h": False,
                "a": True,
                "darboux_strict": True,
                "darboux_angular": True,
            },
            "axis": EZ,
        },
    )


def _latitude_cone(params: dict) -> RuledSurfaceSpec:
    beta = params.get("beta")
    if beta is None or not (0.0 < beta < math.pi / 2.0):
        raise BadParams(f"latitude_cone needs beta in (0, pi/2), got {beta!r}")
    return RuledSurfaceSpec(
        base_curve=_constant_curve(ZERO),
        director=_circle_director(math.sin(beta), math.cos(beta)),
        param_range=(0.0, 2.0 * math.pi),
        provenance={"kind": "catalog", "name": "latitude_cone", "params": {"beta": beta}},
        expected={
            "kappa_const": math.tan(beta),
            "darboux_const": Vec3(0.0, 0.0, 1.0 / math.cos(beta)),
            "verdicts": {
                "q": True,
                "h": False,
                "a": True,
                "darboux_strict": True,
                "darboux_angular": True,
            },
            "axis": EZ,
            "q_constant": math.sin(beta),
            "a_constant": math.cos(beta),
        },
    )


def _hyperboloid(params: dict) -> RuledSurfaceSpec:
    radius = params.get("r", 1.0)
    pitch = params.get("pitch", 1.0)
    if not (radius > 0.0 and math.isfinite(radius)):
        raise BadParams(f"hyperboloid needs r > 0, got {radius!r}")
    if pitch == 0.0 or not math.isfinite(pitch):
        raise BadParams(f"hyperboloid needs non-zero pitch, got {pitch!r}")
    scale = 1.0 / math.sqrt(1.0 + pitch * pitch)

    def base(u: float) -> Jet3:
        cu, su = math.cos(u), math.sin(u)
        return Jet3(
            d0=Vec3(radius * cu, radius * su, 0.0),
            d1=Vec3(-radius * su, radius * cu, 0.0),
            d2=Vec3(-radius * cu, -radius * su, 0.0),
            d3=Vec3(radius * su, -radius * cu, 0.0),
            param="u",
        )

    def director(u: float) -> Jet3:
        cu, su = math.cos(u), math.sin(u)
        return Jet3(
            d0=Vec3(-su * scale, cu * scale, pitch * scale),
            d1=Vec3(-cu * scale, -su * scale, 0.0),
            d2=Vec3(su * scale, -cu * scale, 0.0),
            d3=Vec3(cu * scale, su * scale, 0.0),
            param="u",
        )

    return RuledSurfaceSpec(
        base_curve=base,
        director=director,
        param_range=(0.0, 2.0 * math.pi),
        provenance={
            "kind": "catalog",
            "name": "hyperboloid",
            "params": {"r": radius, "pitch": pitch},
        },
        expected={
            "kappa_const": pitch,
            "darboux_const": Vec3(0.0, 0.0, math.sqrt(1.0 + pitch * pitch)),
            "verdicts": {
                "q": True,
                "h": False,
                "a": True,
                "darboux_strict": True,
                "darboux_angular": True,
            },
            "axis": EZ,
            "striction_is_base": True,
        },
    )


def _radial_plane() -> RuledSurfaceSpec:
    circle = _circle_director(0.0, 1.0)
    return RuledSurfaceSpec(
        base_curve=circle,
        director=circle,
        param_range=(0.0, 2.0 * math.pi),
        provenance={"kind": "catalog", "name": "radial_plane", "params": {}},
        expected={
            "kappa_const": 0.0,
            "darboux_const": EZ,
            "verdicts": {
                "q": False,
                "h": False,
                "a": True,
                "darboux_strict": True,
                "darboux_angular": True,
            },
            "axis": EZ,
            "striction_const": ZERO,
        },
    )


def _generated_catalog_entry(name: str, profile: KappaProfile, params: dict) -> RuledSurfaceSpec:
    config = GeneratorConfig(
        profile=profile,
        step=params.get("step", 0.01),
        alpha=params.get("alpha", 0.0),
    )
    surface = build_surface(integrate_frame(config), config)
    return RuledSurfaceSpec(
        base_curve=surface.base_curve,
        director=surface.director,
        param_range=surface.param_range,
        provenance={"kind": "catalog", "name": name, "params": dict(params)},
        expected=surface.expected,
    )


def _constant_sigma_entry(params: dict) -> RuledSurfaceSpec:
    d = params.get("d")
    if d is None:
        raise BadParams("constant_sigma needs parameter d")
    s1_range = tuple(params.get("s1_range", (-1.8, 1.8)))
    profile = ConstantSigma(d=d, domain=s1_range)
    surface = _generated_catalog_entry("constant_sigma", profile, params)
    surface.expected.update(
        {
            "sigma_const": d,
            "verdicts": {
                "q": False,
                "h": True,
                "a": False,
                "darboux_strict": False,
                "darboux_angular": True,
            },
            "h_constant": d / math.sqrt(1.0 + d * d),
            "angular_constant": 1.0 / math.sqrt(1.0 + d * d),
        }
    )
    return surface


def _tabulated_entry(params: dict) -> RuledSurfaceSpec:
    knots = params.get("s1_knots")
    values = params.get("kappa_values")
    if knots is None or values is None:
        raise BadParams("tabulated_kappa needs s1_knots and kappa_values")
    profile = TabulatedKappa(tuple(knots), tuple(values))
    return _generated_catalog_entry("tabulated_kappa", profile, params)


def catalog(name: str, params: dict | None = None) -> RuledSurfaceSpec:
    """Build a named reference surface.

    Closed-form entries: ``helicoid``, ``latitude_cone`` (beta),
    ``hyperboloid`` (r, pitch), ``radial_plane``.  Generated entries:
    ``constant_sigma`` (d, s1_range, alpha, step) and ``tabulated_kappa``
    (s1_knots, kappa_values, alpha, step).
    """
    params = dict(params or {})
    if name == "helicoid":
        return _helicoid()
    if name == "latitude_cone":
        return _latitude_cone(params)
    if name == "hyperboloid":
        return _hyperboloid(params)
    if name == "radial_plane":
        return _radial_plane()
    if name == "constant_sigma":
        return _constant_sigma_entry(params)
    if name == "tabulated_kappa":
        return _tabulated_entry(params)
    raise UnknownCatalogName(name)


def catalog_names() -> tuple[str, ...]:
    return (
        "helicoid",
        "latitude_cone",
        "hyperboloid",
        "radial_plane",
        "constant_sigma",
        "tabulated_kappa",
    )
