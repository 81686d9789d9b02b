"""Generation of ruled surfaces with prescribed conical curvature.

The frame motion is a linear ODE once kappa(s1) is given, so a surface with
any prescribed conical curvature profile can be produced by integrating

    q' = h,    h' = -q + kappa*a,    a' = -kappa*h

with classical fixed-step RK4, re-orthonormalizing the triple after every
step (Gram-Schmidt in the order q, h, a).  The march runs on plain Python
floats: on 3x3 arrays numpy's per-call cost outweighs the arithmetic, and a
fixed order of operations keeps the frames' bits independent of the BLAS
build.  A base curve that is its own
striction curve follows by quadrature of c' = cos(alpha) q + sin(alpha) a:
that derivative is orthogonal to q' for every fixed angle alpha, which is
exactly the striction property.

Between nodes the director and base curve are evaluated from two-point
Taylor interpolants (degree 7, matching value and three derivatives at both
ends, all known from the frame equations).  The glued interpolant is C^3
across nodes, so sampled derivatives up to third order converge cleanly, and
the director's jet and the base curve's tangent satisfy the frame equations
identically at the query point.  Profiles, interpolants and surface jets all
evaluate whole arrays of parameter values at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .frame import RuledSurfaceSpec
from .geometry import Jet3, cross, dot, normalize, power

__all__ = [
    "OutOfDomain",
    "UnknownCatalogName",
    "BadParams",
    "ConstantKappa",
    "ConstantSigma",
    "TabulatedKappa",
    "KappaProfile",
    "GeneratorConfig",
    "generator_config",
    "describe",
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
# the work budget of one input: the most RK4 steps, u samples or mesh
# vertices it may ask for
WORK_LIMIT = 2**20
# characters of a rejected value that an error message repeats
ECHO_LIMIT = 500
_ZERO = np.float64(0.0)  # divides as numpy does: x / 0 is inf or nan


class OutOfDomain(ValueError):
    """A curvature profile was queried outside its s1 domain."""


class BadParams(ValueError):
    """A spec document, catalog entry or generator parameter is invalid."""


SpecError = BadParams


class UnknownCatalogName(BadParams):
    """No catalog entry under that name."""


def _is_number(value) -> bool:
    # float and int first: they skip the slower numbers.Real check
    try:
        return (isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond float range
        return False


def _echo(value) -> str:
    """``repr(value)``, cut at ``ECHO_LIMIT`` characters and its length given when longer."""
    text = repr(value)
    return text if len(text) <= ECHO_LIMIT else f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def finite_float(value, where: str) -> float:
    """``value`` as a float; anything but a finite real number raises ``BadParams``."""
    if not _is_number(value):
        raise BadParams(f"{where}: expected a number, got {_echo(value)}")
    return float(value)


def finite_floats(value, where: str, length: int | None = None) -> tuple[float, ...]:
    """A list or tuple of finite numbers as floats, of ``length`` items when given."""
    if not isinstance(value, (list, tuple)) or (length is not None and len(value) != length):
        want = "a list of numbers" if length is None else f"a list of {length} numbers"
        raise BadParams(f"{where}: expected {want}, got {_echo(value)}")
    for i, item in enumerate(value):
        if not _is_number(item):
            finite_float(item, f"{where}[{i}]")  # raises, naming the item
    return tuple(map(float, value))


def check_keys(doc: dict, required, optional, where: str) -> None:
    """Reject keys of ``doc`` outside ``required`` and ``optional``, then missing required ones."""
    unknown = sorted(set(doc) - {*required, *optional})
    if unknown:
        raise BadParams(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise BadParams(f"{where}: missing keys {missing}")


@dataclass(frozen=True)
class ConstantKappa:
    """kappa(s1) = kappa0 on a fixed interval."""

    kappa0: float
    domain: tuple[float, float] = (0.0, 2.0 * math.pi)

    def __post_init__(self) -> None:
        _require_interval(self.domain)

    def kappa(self, s1):
        return np.full(np.shape(s1), self.kappa0)

    def kappa_prime(self, s1):
        return np.zeros(np.shape(s1))


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

    def kappa(self, s1):
        t = self.d * s1
        return t / np.sqrt(1.0 - t * t)

    def kappa_prime(self, s1):
        t = self.d * s1
        return self.d / power(1.0 - t * t, 1.5)


@dataclass(frozen=True)
class TabulatedKappa:
    """Natural cubic spline through (s1, kappa) knots.

    The knot slopes solve the natural-end tridiagonal system once (C. de
    Boor, *A Practical Guide to Splines*, 1978).  It is strictly diagonally
    dominant, so elimination needs no pivoting.  Each interval keeps the
    power coefficients of its cubic in the offset from its left knot, and a
    last row holds the end knot's value and slope, so every knot returns its
    own kappa value.
    """

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
        x, y = np.array(self.s1_knots), np.array(self.kappa_values)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # row i: dx[i] m[i-1] + 2 (dx[i-1] + dx[i]) m[i] + dx[i-1] m[i+1]
        #        = 3 (dx[i] slope[i-1] + dx[i-1] slope[i]); the end rows set kappa'' = 0
        lower = np.append(dx[1:], dx[-1])
        diag = 2.0 * np.concatenate((dx[:1], dx[:-1] + dx[1:], dx[-1:]))
        upper = np.concatenate((dx[:1], dx[:-1]))
        m = 3.0 * np.concatenate((y[1:2] - y[:1], dx[1:] * slope[:-1] + dx[:-1] * slope[1:],
                                  y[-1:] - y[-2:-1]))
        for i in range(len(x) - 1):
            fact = lower[i] / diag[i]
            diag[i + 1] -= fact * upper[i]
            m[i + 1] -= fact * m[i]
        m[-1] /= diag[-1]
        for i in range(len(x) - 2, -1, -1):
            m[i] = (m[i] - upper[i] * m[i + 1]) / diag[i]
        t = (m[:-1] + m[1:] - 2.0 * slope) / dx
        # rows: the t^3, t^2, t and constant coefficients, one column per knot
        coeffs = np.array((np.append(t / dx, 0.0), np.append((slope - m[:-1]) / dx - t, 0.0),
                           m, y))
        object.__setattr__(self, "_knots", x)
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.s1_knots[0], self.s1_knots[-1])

    def _cubic(self, s1):
        """Coefficient rows of the cubic that holds each s1, and s1's offset from its knot."""
        i = np.clip(np.searchsorted(self._knots, s1, side="right") - 1, 0, len(self._knots) - 1)
        return self._coeffs[:, i], s1 - self._knots[i]

    # both sum from the constant term with the powers of t built up step by
    # step, the order of the reference CubicSpline in tests/test_generators.py:
    # inside the knot span the values then equal it unless its solver swaps rows
    def kappa(self, s1):
        (c3, c2, c1, c0), t = self._cubic(s1)
        t2 = t * t
        return c0 + c1 * t + c2 * t2 + c3 * (t2 * t)

    def kappa_prime(self, s1):
        (c3, c2, c1, _), t = self._cubic(s1)
        return c1 + c2 * t * 2.0 + c3 * (t * t) * 3.0


KappaProfile = ConstantKappa | ConstantSigma | TabulatedKappa


def _require_interval(domain: tuple[float, float]) -> None:
    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise BadParams(f"bad s1 domain {domain!r}")


def kappa_of_s1(profile: KappaProfile, s1):
    """Evaluate a profile at a value or an array, rejecting queries outside its domain."""
    lo, hi = profile.domain
    s1 = np.asarray(s1, dtype=float)
    outside = (s1 < lo - DOMAIN_SLACK) | (s1 > hi + DOMAIN_SLACK)
    if outside.any():
        raise OutOfDomain(f"s1={float(s1[outside][0])!r} outside profile domain [{lo!r}, {hi!r}]")
    return profile.kappa(np.clip(s1, lo, hi))


def _kappa_columns(profile: KappaProfile, s1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kappa and kappa' at the values s1, as (N, 1) columns."""
    lo, hi = profile.domain
    kap = kappa_of_s1(profile, s1)
    return kap[:, None], profile.kappa_prime(np.clip(s1, lo, hi))[:, None]


@dataclass(frozen=True)
class GeneratorConfig:
    """How to integrate a curvature profile into a surface."""

    profile: KappaProfile
    step: float = 0.01
    alpha: float = 0.0  # angle of the base-curve tangent in the (q, a) plane

    def __post_init__(self) -> None:
        lo, hi = self.profile.domain
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise BadParams("step must be positive and finite")
        if self.step > (hi - lo) / MIN_STEPS_PER_DOMAIN:
            raise BadParams(
                f"step {self.step!r} too coarse: need at least "
                f"{MIN_STEPS_PER_DOMAIN} steps across [{lo!r}, {hi!r}]"
            )
        if self.step < (hi - lo) / WORK_LIMIT:
            raise BadParams(
                f"step {self.step!r} too fine: at most "
                f"{WORK_LIMIT} steps across [{lo!r}, {hi!r}]"
            )


# each profile type's class, number keys and list-of-numbers keys
_PROFILES = {
    "constant": (ConstantKappa, ("kappa0",), ()),
    "constant_sigma": (ConstantSigma, ("d",), ()),
    "tabulated": (TabulatedKappa, (), ("s1_knots", "kappa_values")),
}
# the keys beside the profile that shape the integration
GENERATOR_KEYS = ("s1_range", "alpha", "step")


def describe(profile: KappaProfile) -> dict:
    """The profile document of ``profile``, which ``generator_config`` reads back."""
    kind = next(kind for kind, (cls, _, _) in _PROFILES.items() if type(profile) is cls)
    _, number_keys, list_keys = _PROFILES[kind]
    return {"type": kind, **{key: getattr(profile, key) for key in number_keys},
            **{key: list(getattr(profile, key)) for key in list_keys}}


def generator_config(profile, params: dict, where: str = "spec",
                     profile_where: str = "profile") -> GeneratorConfig:
    """Config of a kappa-profile document and the ``GENERATOR_KEYS`` in ``params``.

    ``profile`` is ``{"type": ..., <that type's keys>}``; other keys of
    ``params`` are ignored, and an omitted generator key keeps its dataclass
    default.  Errors name keys as ``profile_where.key`` and ``where.key``.
    """
    if not isinstance(profile, dict) or "type" not in profile:
        raise BadParams(f"{profile_where}: expected an object with a 'type' key")
    kind = profile["type"]
    if not isinstance(kind, str) or kind not in _PROFILES:
        raise BadParams(f"{profile_where}.type: unknown type {kind!r}")
    cls, number_keys, list_keys = _PROFILES[kind]
    check_keys(profile, ("type", *number_keys, *list_keys), (), profile_where)
    args = [finite_float(profile[key], f"{profile_where}.{key}") for key in number_keys]
    args += [finite_floats(profile[key], f"{profile_where}.{key}") for key in list_keys]
    window = {}
    if "s1_range" in params:
        window["domain"] = finite_floats(params["s1_range"], f"{where}.s1_range", 2)
        if not window["domain"][1] > window["domain"][0]:
            raise BadParams(f"{where}.s1_range: hi must exceed lo")
    if cls is TabulatedKappa:  # the knots fix the window; s1_range may only restate it
        kappa_profile = cls(*args)
        lo, hi = kappa_profile.domain
        if window and not np.allclose(window["domain"], (lo, hi), rtol=0.0, atol=1e-12):
            raise BadParams(
                f"{where}.s1_range: must match the tabulated knot span [{lo!r}, {hi!r}]")
    else:
        kappa_profile = cls(*args, **window)
    fields = {key: finite_float(params[key], f"{where}.{key}")
              for key in ("alpha", "step") if key in params}
    return GeneratorConfig(kappa_profile, **fields)


@dataclass
class FramePath:
    """Frames at the RK4 nodes as (N, 3) arrays, iterable as (s1, q, h, a) rows."""

    s1: list[float]
    q: np.ndarray
    h: np.ndarray
    a: np.ndarray

    def __iter__(self):
        return iter(zip(self.s1, self.q, self.h, self.a))

    def __len__(self) -> int:
        return len(self.s1)


def integrate_frame(config: GeneratorConfig) -> FramePath:
    """March the frame ODE across the profile domain with classical RK4,
    starting from the identity triple (q, h, a) = (e1, e2, e3).

    The triple is re-orthonormalized after every step; the final (possibly
    shorter) step lands exactly on the domain's upper end.  The stage
    abscissae do not depend on the frame, so kappa is evaluated at all of
    them in one call before the march.

    The nine components march as Python floats: numpy's per-call cost on
    3x3 arrays outweighs the arithmetic.  The frame equations couple only
    equal coordinates, so the inner loop takes one coordinate of q, h and a
    per pass.  Each operation keeps the order of the one-vector-at-a-time
    reference, so the frames keep its bits whatever BLAS numpy was built with.
    """
    profile = config.profile
    lo, hi = profile.domain

    edge = 1e-12 * max(1.0, abs(hi), abs(lo))
    s_nodes = [lo]
    steps = []
    s = lo
    while s < hi - edge:
        dt = min(config.step, hi - s)
        steps.append(dt)
        s = hi if hi - (s + dt) <= edge else s + dt
        s_nodes.append(s)
    stage_s = [(s, s + dt / 2.0, s + dt) for s, dt in zip(s_nodes, steps)]
    kappas = kappa_of_s1(profile, np.clip(np.array(stage_s), lo, hi)).tolist()

    q, h, a = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    frames = np.empty((len(s_nodes), 9))
    frames[0] = q + h + a
    for i, (dt, (k_start, k_half, k_end)) in enumerate(zip(steps, kappas), 1):
        half, sixth = dt / 2.0, dt / 6.0
        rows = []
        # K at a stage point (q, h, a) is (h, b, c), b = -q + a*kappa, c = h*(-kappa)
        for qc, hc, ac in zip(q, h, a):
            b1, c1 = -qc + ac * k_start, hc * -k_start
            q2, h2, a2 = qc + hc * half, hc + b1 * half, ac + c1 * half
            b2, c2 = -q2 + a2 * k_half, h2 * -k_half
            q3, h3, a3 = qc + h2 * half, hc + b2 * half, ac + c2 * half
            b3, c3 = -q3 + a3 * k_half, h3 * -k_half
            q4, h4, a4 = qc + h3 * dt, hc + b3 * dt, ac + c3 * dt
            b4, c4 = -q4 + a4 * k_end, h4 * -k_end
            rows.append((qc + (hc + h2 * 2.0 + h3 * 2.0 + h4) * sixth,
                         hc + (b1 + b2 * 2.0 + b3 * 2.0 + b4) * sixth,
                         ac + (c1 + c2 * 2.0 + c3 * 2.0 + c4) * sixth))
        (qx, hx, ax), (qy, hy, ay), (qz, hz, az) = rows
        n = math.sqrt(qx * qx + qy * qy + qz * qz) or _ZERO
        qx, qy, qz = qx / n, qy / n, qz / n
        d = hx * qx + hy * qy + hz * qz
        hx, hy, hz = hx - qx * d, hy - qy * d, hz - qz * d
        n = math.sqrt(hx * hx + hy * hy + hz * hz) or _ZERO
        hx, hy, hz = hx / n, hy / n, hz / n
        d = ax * qx + ay * qy + az * qz
        ax, ay, az = ax - qx * d, ay - qy * d, az - qz * d
        d = ax * hx + ay * hy + az * hz
        ax, ay, az = ax - hx * d, ay - hy * d, az - hz * d
        n = math.sqrt(ax * ax + ay * ay + az * az) or _ZERO
        q, h, a = (qx, qy, qz), (hx, hy, hz), (ax / n, ay / n, az / n)
        frames[i] = q + h + a
    frames = frames.reshape(-1, 3, 3)
    return FramePath(s_nodes, frames[:, 0], frames[:, 1], frames[:, 2])


# Hermite interpolation with value and three derivatives at both ends of
# [0, 1] (Stoer and Bulirsch, Introduction to Numerical Analysis, 2.1.5): the
# degree 4-7 coefficients are this matrix times what the left end's Taylor
# cubic misses at t = 1, its value and first three Taylor coefficients there
# subtracted from the right end's.  The products are written out in a fixed
# order, not as a matrix product, so the bytes do not depend on the BLAS build.
_HERMITE = np.array(((35.0, -15.0, 5.0, -1.0), (-84.0, 39.0, -14.0, 3.0),
                     (70.0, -34.0, 13.0, -3.0), (-20.0, 10.0, -4.0, 1.0)))[:, :, None, None]


def _director_jet(q, h, a, kap, kp) -> tuple:
    """The director's value and first three s1-derivatives by the frame equations,
    from the frame rows and the (N, 1) columns kappa and kappa'."""
    return q, h, -q + a * kap, h * (-(1.0 + kap * kap)) + a * kp


class _PiecewisePoly:
    """Per-interval degree-7 vector polynomials over the node grid.

    ``jets`` holds (value, d1, d2, d3) node rows, derivatives against u.  On
    each interval, in t = (u - u0)/width, the polynomial matches value and
    three derivatives at both ends, so the glued function is C^3.
    ``coeffs[k]`` holds the degree-k coefficients of every interval, shape
    (intervals, 3); evaluation is one Horner pass over all query points.
    """

    def __init__(self, s_nodes: np.ndarray, jets: tuple):
        width = (s_nodes[1:] - s_nodes[:-1])[:, None]
        scale = np.array((np.ones_like(width), width, width * width / 2.0,
                          width * width * width / 6.0))
        jets = np.array(jets)
        a, b = jets[:, :-1] * scale, jets[:, 1:] * scale  # Taylor coefficients at each end
        r = (b[0] - a[0] - a[1] - a[2] - a[3], b[1] - a[1] - a[2] * 2.0 - a[3] * 3.0,
             b[2] - a[2] - a[3] * 3.0, b[3] - a[3])
        h = _HERMITE
        self.s_nodes = s_nodes
        self.coeffs = np.concatenate((a, h[:, 0] * r[0] + h[:, 1] * r[1] + h[:, 2] * r[2]
                                      + h[:, 3] * r[3]))

    def _locate(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each point's interval, that interval's width and the point's (M, 1) t."""
        i = np.searchsorted(self.s_nodes, u, side="right") - 1
        i = np.clip(i, 0, len(self.s_nodes) - 2)
        width = self.s_nodes[i + 1] - self.s_nodes[i]
        return i, width, ((u - self.s_nodes[i]) / width)[:, None]

    def value(self, u: np.ndarray) -> np.ndarray:
        """The value half of ``value_and_derivative``, bit for bit."""
        i, _, t = self._locate(u)
        acc = np.zeros((len(i), self.coeffs.shape[-1]))
        for c in self.coeffs[::-1]:
            acc = acc * t + c[i]
        return acc

    def value_and_derivative(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i, width, t = self._locate(u)
        acc = np.zeros((len(i), self.coeffs.shape[-1]))
        dacc = np.zeros_like(acc)
        for c in self.coeffs[::-1]:  # one degree's rows gathered at a time
            dacc = dacc * t + acc
            acc = acc * t + c[i]
        return acc, dacc / width[:, None]


def build_surface(frames: FramePath, config: GeneratorConfig) -> RuledSurfaceSpec:
    """Assemble a ruled surface from an integrated frame path.

    The base curve c(s1) = integral of cos(alpha) q + sin(alpha) a starts at
    the origin and is accumulated with per-interval Simpson quadrature
    (midpoint frames from the interpolant), so it is its own striction curve
    up to the integration error.  The returned spec is parametrized by
    u = s1: the director's jet and the base curve's tangent come from the
    frame equations and the exact profile values.
    """
    profile = config.profile
    s = np.array(frames.s1)
    q, h, a = frames.q, frames.h, frames.a
    kap, kp = _kappa_columns(profile, s)
    q_poly = _PiecewisePoly(s, _director_jet(q, h, a, kap, kp))
    cos_a, sin_a = math.cos(config.alpha), math.sin(config.alpha)

    def frame_at(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal frame anywhere in the domain, from the director interpolant."""
        p, dp = q_poly.value_and_derivative(u)
        q = normalize(p)
        h = normalize(dp - q * dot(dp, q)[:, None])
        return q, h, cross(q, h)

    def tangent(q: np.ndarray, a: np.ndarray) -> np.ndarray:
        return q * cos_a + a * sin_a

    g = tangent(q, a)
    qm, _, am = frame_at(0.5 * (s[:-1] + s[1:]))
    steps = (g[:-1] + tangent(qm, am) * 4.0 + g[1:]) * ((s[1:] - s[:-1]) / 6.0)[:, None]
    c_nodes = np.cumsum(np.concatenate((np.zeros((1, 3)), steps)), axis=0)

    # the node data of c and its first three s1-derivatives, by the frame equations
    scale = cos_a - kap * sin_a
    c_poly = _PiecewisePoly(s, (c_nodes, g, h * scale,
                                h * (-kp * sin_a) + (-q + a * kap) * scale))

    def director(u: np.ndarray) -> Jet3:
        return Jet3(*_director_jet(*frame_at(u), *_kappa_columns(profile, u)))

    def base_curve(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q, _, a = frame_at(u)
        return c_poly.value(u), tangent(q, a)

    return RuledSurfaceSpec(
        base_curve=base_curve,
        director=director,
        param_range=profile.domain,
        provenance={
            "kind": "prescribed_kappa",
            "profile": describe(profile),
            "s1_range": list(profile.domain),
            "alpha": config.alpha,
            "step": config.step,
        },
    )


def _columns(u: np.ndarray, x, y, z) -> np.ndarray:
    """(N, 3) rows from x, y, z columns, each an array over u or a constant."""
    out = np.empty((len(u), 3))
    out[:, 0], out[:, 1], out[:, 2] = x, y, z
    return out


def _circle_director(height: float, radius: float):
    """Director jets for the latitude circle q = (radius cos u, radius sin u, height)."""

    def jet(u: np.ndarray) -> Jet3:
        cu, su = np.cos(u), np.sin(u)
        return Jet3(
            d0=_columns(u, radius * cu, radius * su, height),
            d1=_columns(u, -radius * su, radius * cu, 0.0),
            d2=_columns(u, -radius * cu, -radius * su, 0.0),
            d3=_columns(u, radius * su, -radius * cu, 0.0),
        )

    return jet


def _circle(radius: float):
    """Base curve (f, f') of the circle f = (radius cos u, radius sin u, 0)."""

    def base(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cu, su = np.cos(u), np.sin(u)
        return (_columns(u, radius * cu, radius * su, 0.0),
                _columns(u, -radius * su, radius * cu, 0.0))

    return base


def _origin(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zero = np.zeros((len(u), 3))
    return zero, zero


def _entry(name: str, params: dict, base_curve, director,
           param_range: tuple[float, float] = (0.0, 2.0 * math.pi)) -> RuledSurfaceSpec:
    """A catalog surface, by default one of the closed-form entries over u in [0, 2 pi]."""
    return RuledSurfaceSpec(base_curve, director, param_range,
                            {"kind": "catalog", "name": name, "params": params})


def _helicoid(params: dict) -> RuledSurfaceSpec:
    def base(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _columns(u, 0.0, 0.0, u), _columns(u, 0.0, 0.0, 1.0)

    return _entry("helicoid", params, base, _circle_director(0.0, 1.0))


def _latitude_cone(params: dict) -> RuledSurfaceSpec:
    beta = finite_float(params["beta"], "latitude_cone.beta")
    if not (0.0 < beta < math.pi / 2.0):
        raise BadParams(f"latitude_cone needs beta in (0, pi/2), got {beta!r}")
    return _entry("latitude_cone", {"beta": beta}, _origin,
                  _circle_director(math.sin(beta), math.cos(beta)))


def _hyperboloid(params: dict) -> RuledSurfaceSpec:
    radius = finite_float(params.get("r", 1.0), "hyperboloid.r")
    pitch = finite_float(params.get("pitch", 1.0), "hyperboloid.pitch")
    if not radius > 0.0:
        raise BadParams(f"hyperboloid needs r > 0, got {radius!r}")
    if pitch == 0.0:
        raise BadParams(f"hyperboloid needs non-zero pitch, got {pitch!r}")
    scale = 1.0 / math.sqrt(1.0 + pitch * pitch)

    def director(u: np.ndarray) -> Jet3:
        cu, su = np.cos(u), np.sin(u)
        return Jet3(
            d0=_columns(u, -su * scale, cu * scale, pitch * scale),
            d1=_columns(u, -cu * scale, -su * scale, 0.0),
            d2=_columns(u, su * scale, -cu * scale, 0.0),
            d3=_columns(u, cu * scale, su * scale, 0.0),
        )

    return _entry("hyperboloid", {"r": radius, "pitch": pitch}, _circle(radius), director)


def _radial_plane(params: dict) -> RuledSurfaceSpec:
    return _entry("radial_plane", params, _circle(1.0), _circle_director(0.0, 1.0))


def _generated(name: str, kind: str) -> tuple:
    """Catalog row of an entry that is shorthand for a prescribed-kappa document.

    The entry's params are that document flattened: the ``kind`` profile's
    keys beside ``s1_range``, ``alpha`` and ``step``.
    """
    _, number_keys, list_keys = _PROFILES[kind]

    def build(params: dict) -> RuledSurfaceSpec:
        profile = {"type": kind, **{k: v for k, v in params.items() if k not in GENERATOR_KEYS}}
        config = generator_config(profile, params, name, name)
        surface = build_surface(integrate_frame(config), config)
        return _entry(name, params, surface.base_curve, surface.director, surface.param_range)

    return build, (*number_keys, *list_keys), GENERATOR_KEYS


# each entry's builder, required params and optional params
_CATALOG = {
    "helicoid": (_helicoid, (), ()),
    "latitude_cone": (_latitude_cone, ("beta",), ()),
    "hyperboloid": (_hyperboloid, (), ("r", "pitch")),
    "radial_plane": (_radial_plane, (), ()),
    "constant_sigma": _generated("constant_sigma", "constant_sigma"),
    "tabulated_kappa": _generated("tabulated_kappa", "tabulated"),
}


def catalog(name: str, params: dict | None = None) -> RuledSurfaceSpec:
    """Build a named reference surface.

    Closed-form entries: ``helicoid``, ``latitude_cone`` (beta),
    ``hyperboloid`` (r, pitch), ``radial_plane``.  Generated entries are
    shorthand for a ``prescribed_kappa`` document: ``constant_sigma`` (d) is
    the ``constant_sigma`` profile and ``tabulated_kappa`` (s1_knots,
    kappa_values) the ``tabulated`` one, and both also take s1_range, alpha
    and step.  Unknown, missing, non-finite or wrongly typed params raise
    ``BadParams``, the class spec files raise as ``SpecError``; an unknown
    name raises its subclass ``UnknownCatalogName``.
    """
    if name not in _CATALOG:
        raise UnknownCatalogName(f"unknown catalog surface {name!r}")
    build, required, optional = _CATALOG[name]
    params = dict(params or {})
    check_keys(params, required, optional, name)
    return build(params)


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)
