"""Moving frame, conical curvature and Darboux vector of ruled surfaces.

A ruled surface r(u, v) = f(u) + v*q(u) with unit, non-constant director q
carries the orthonormal frame {q, h, a}: the ruling direction q, the
asymptotic normal a = (q x q') / |q'| and the central normal h = a x q.
Written in the arc length s1 of the director's trace on the unit sphere the
frame obeys

    dq/ds1 = h,    dh/ds1 = -q + kappa*a,    da/ds1 = -kappa*h,

so a single scalar kappa (the conical curvature) controls the whole motion.
The instantaneous rotation axis is the Darboux vector W = kappa*q + a with
|W| = sqrt(1 + kappa^2); every frame derivative equals W x (that vector).

In any regular parameter u, with n = |q_u| = ds1/du, the conical curvature
kappa = det(q, q_u, q_uu) / n^3 (the trace's geodesic curvature) and
kappa' = d(kappa)/ds1 = (det(q, q_u, q_uuu) / n - 3 <q_u, q_uu> kappa) / n^3.

The surface-independent part of the base curve is the striction point

    c = f - (<q', f'> / <q', q'>) * q,

the foot of the common perpendicular of neighbouring rulings.

Everything here is columnar: jets hold (N, 3) arrays, one row per parameter
value, and ``frame_samples`` returns a ``FrameTable`` of arrays computed in
one pass over the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    EPS_CYL,
    CylindricalDirector,
    Jet3,
    NonFiniteSample,
    cross,
    det3,
    dot,
    norm,
    power,
)

__all__ = [
    "NonOrthogonalInput",
    "RuledSurfaceSpec",
    "FrameTable",
    "SampleGrid",
    "striction_point",
    "asymptotic_normal",
    "central_normal",
    "conical_curvature",
    "kappa_prime",
    "darboux_vector",
    "sigma",
    "frame_samples",
]

ORTHO_TOL = 1e-9


class NonOrthogonalInput(ValueError):
    """Frame vectors handed in were not unit and mutually orthogonal."""


@dataclass(frozen=True)
class RuledSurfaceSpec:
    """Ruled surface given by the 1-jet of its base curve and the 3-jet of its director.

    ``base_curve`` maps a 1-D array of parameter values u to the pair (f, f_u) of
    (N, 3) arrays, the only base derivatives the striction point reads, and
    ``director`` to a ``Jet3`` of u-derivatives with unit values, one row per
    value.  ``provenance`` records where the surface came from (catalog entry,
    prescribed-curvature build, or user samples) and flows into report
    metadata unchanged.
    """

    base_curve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    director: Callable[[np.ndarray], Jet3]
    param_range: tuple[float, float]
    provenance: dict


@dataclass(frozen=True, eq=False)
class FrameTable:
    """Frame and curvature data on a grid, one array per column.

    Scalar columns (``u``, ``s1``, ``kappa``, ``kappa_prime``, ``sigma``)
    have shape (N,); vector columns (``q``, ``h``, ``a``, ``darboux``,
    ``striction``) have shape (N, 3).  Row i of every column belongs to the
    grid value ``u[i]``.
    """

    u: np.ndarray
    s1: np.ndarray
    q: np.ndarray
    h: np.ndarray
    a: np.ndarray
    kappa: np.ndarray
    kappa_prime: np.ndarray
    sigma: np.ndarray
    darboux: np.ndarray
    striction: np.ndarray

    def __len__(self) -> int:
        return len(self.u)


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing parameter values spanning a closed interval, as a read-only array."""

    u_values: np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.u_values, dtype=float)
        if u.ndim != 1 or len(u) < 2:
            raise ValueError("a sample grid needs at least two parameter values")
        if not np.all(u[1:] > u[:-1]):
            raise ValueError("grid parameter values must be strictly increasing")
        u.flags.writeable = False
        object.__setattr__(self, "u_values", u)

    @property
    def count(self) -> int:
        return len(self.u_values)

    @classmethod
    def uniform(cls, param_range: tuple[float, float], count: int) -> "SampleGrid":
        lo, hi = param_range
        if not hi > lo:
            raise ValueError(f"degenerate parameter range {param_range!r}")
        if count < 2:
            raise ValueError("count must be at least 2")
        step = (hi - lo) / (count - 1)
        return cls(np.append(lo + np.arange(count - 1) * step, hi))


def _speed(q_jet: Jet3) -> np.ndarray:
    """|q_u| per row; ``CylindricalDirector`` where the director stalls."""
    n1 = norm(q_jet.d1)
    if np.any(n1 <= EPS_CYL):
        raise CylindricalDirector()
    return n1


def striction_point(base: tuple[np.ndarray, np.ndarray], q_jet: Jet3) -> np.ndarray:
    """Striction points c = f - (<q', f'>/<q', q'>) q at common parameters, ``base`` = (f, f')."""
    return _striction(*base, q_jet, _speed(q_jet))


def _striction(f0: np.ndarray, f1: np.ndarray, q_jet: Jet3, n1: np.ndarray) -> np.ndarray:
    """``striction_point`` from f, f' and the director speed ``n1`` = |q'|."""
    return f0 - q_jet.d0 * (dot(q_jet.d1, f1) / (n1 * n1))[:, None]


def asymptotic_normal(q_jet: Jet3) -> np.ndarray:
    """Unit normals a = (q x q') / |q'|, the limit of the surface normal."""
    return _asymptotic_normal(q_jet, _speed(q_jet))


def _asymptotic_normal(q_jet: Jet3, n1: np.ndarray) -> np.ndarray:
    return cross(q_jet.d0, q_jet.d1) / n1[:, None]


def central_normal(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Third frame leg h = a x q, completing the right-handed triple."""
    if (
        np.any(np.abs(norm(q) - 1.0) > ORTHO_TOL)
        or np.any(np.abs(norm(a) - 1.0) > ORTHO_TOL)
        or np.any(np.abs(dot(q, a)) > ORTHO_TOL)
    ):
        raise NonOrthogonalInput("central_normal needs unit, mutually orthogonal q and a")
    return cross(a, q)


def conical_curvature(q_jet: Jet3) -> np.ndarray:
    """Conical curvature kappa = det(q, q_u, q_uu) / |q_u|^3, or det(q, dq/ds1, d2q/ds1^2)."""
    return _conical_curvature(q_jet, _speed(q_jet))


def _conical_curvature(q_jet: Jet3, n1: np.ndarray) -> np.ndarray:
    return det3(q_jet.d0, q_jet.d1, q_jet.d2) / (n1 * n1 * n1)


def kappa_prime(q_jet: Jet3) -> np.ndarray:
    """d(kappa)/ds1 = (det(q, q_u, q_uuu) / |q_u| - 3 <q_u, q_uu> kappa) / |q_u|^3."""
    n1 = _speed(q_jet)
    return _kappa_prime(q_jet, n1, dot(q_jet.d1, q_jet.d2), _conical_curvature(q_jet, n1))


def _kappa_prime(q_jet: Jet3, n1: np.ndarray, d12: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """``kappa_prime`` from the speed ``n1``, <q_u, q_uu> ``d12`` and ``kappa``."""
    third = det3(q_jet.d0, q_jet.d1, q_jet.d3) / n1
    return (third - 3.0 * d12 * kappa) / (n1 * n1 * n1)


def darboux_vector(kappa, q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Rotation vectors W = kappa*q + a of the moving frame."""
    return q * np.expand_dims(kappa, -1) + a


def sigma(kappa, kappa_prime_value):
    """Slant invariant sigma = kappa' / (1 + kappa^2)^(3/2).

    Constant sigma is equivalent to the central normal h making a constant
    angle with a fixed direction.
    """
    return kappa_prime_value / power(1.0 + kappa * kappa, 1.5)


def _raise_first_fault(u: np.ndarray, finite: np.ndarray, speed: np.ndarray) -> None:
    """Name the bad grid value with the smallest u."""
    bad = np.flatnonzero(~finite | (speed <= EPS_CYL))
    if bad.size:
        at = float(u[bad[0]])
        if not finite[bad[0]]:
            raise NonFiniteSample(f"surface jets are non-finite at u={at!r}")
        raise CylindricalDirector(u=at)


def frame_samples(surface: RuledSurfaceSpec, grid: SampleGrid) -> FrameTable:
    """Evaluate the frame, curvature and striction data on a grid.

    Two jet evaluations cover the whole grid: the base curve and the
    director at the grid values.  The spherical arc length s1 starts at zero
    on the first grid point and accumulates over each interval by the
    end-corrected trapezoid rule (Euler-Maclaurin)

        ds1 = du/2 (n_i + n_{i+1}) + du^2/12 (n'_i - n'_{i+1})

    in the speed n = |q_u| and its derivative n' = <q_u, q_uu> / n, both read
    from the director jet.  The rule is exact for constant-speed directors
    and fourth-order accurate otherwise.
    """
    u = grid.u_values
    f0, f1 = surface.base_curve(u)
    q_jet = surface.director(u)
    finite = np.isfinite(f0).all(-1) & np.isfinite(f1).all(-1) & q_jet.is_finite()
    speed = norm(q_jet.d1)
    _raise_first_fault(u, finite, speed)
    a = _asymptotic_normal(q_jet, speed)
    kap = _conical_curvature(q_jet, speed)
    d12 = dot(q_jet.d1, q_jet.d2)
    kp = _kappa_prime(q_jet, speed, d12, kap)
    du = u[1:] - u[:-1]
    dspeed = d12 / speed
    steps = du / 2.0 * (speed[:-1] + speed[1:]) + du * du / 12.0 * (dspeed[:-1] - dspeed[1:])
    return FrameTable(
        u=u,
        s1=np.cumsum(np.concatenate(([0.0], steps))),
        q=q_jet.d0,
        h=central_normal(q_jet.d0, a),
        a=a,
        kappa=kap,
        kappa_prime=kp,
        sigma=sigma(kap, kp),
        darboux=darboux_vector(kap, q_jet.d0, a),
        striction=_striction(f0, f1, q_jet, speed),
    )
