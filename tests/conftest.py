"""Shared fixtures: reference surfaces, rigid-motion helpers, a scalar 3-vector and a
traced memory peak."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from slantsurf import Jet3, RuledSurfaceSpec, catalog
from slantsurf.geometry import cross, dot, normalize

TABULATED_LINEAR = {"s1_knots": [0.0, 1.5, 3.0], "kappa_values": [0.0, 1.5, 3.0]}


@dataclass(frozen=True, slots=True)
class Vec3:
    """One 3-vector as three Python floats: the scalar reference for row arithmetic."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return self / n


def build_catalog_instances() -> list[tuple[str, RuledSurfaceSpec]]:
    return [
        ("helicoid", catalog("helicoid")),
        ("latitude_cone_pi6", catalog("latitude_cone", {"beta": math.pi / 6})),
        ("latitude_cone_pi4", catalog("latitude_cone", {"beta": math.pi / 4})),
        ("latitude_cone_pi3", catalog("latitude_cone", {"beta": math.pi / 3})),
        ("hyperboloid", catalog("hyperboloid", {"r": 1.0, "pitch": 1.0})),
        ("radial_plane", catalog("radial_plane")),
        ("constant_sigma_025", catalog("constant_sigma", {"d": 0.25})),
        ("constant_sigma_050", catalog("constant_sigma", {"d": 0.5})),
        ("tabulated_linear", catalog("tabulated_kappa", TABULATED_LINEAR)),
    ]


# invariants each catalog instance has in closed form, by label: the constant
# kappa of the closed-form entries and the ruling angle alpha of the generated ones
EXPECTED = {
    "helicoid": {"kappa_const": 0.0},
    "latitude_cone_pi6": {"kappa_const": math.tan(math.pi / 6)},
    "latitude_cone_pi4": {"kappa_const": math.tan(math.pi / 4)},
    "latitude_cone_pi3": {"kappa_const": math.tan(math.pi / 3)},
    "hyperboloid": {"kappa_const": 1.0},
    "radial_plane": {"kappa_const": 0.0},
    "constant_sigma_025": {"alpha": 0.0},
    "constant_sigma_050": {"alpha": 0.0},
    "tabulated_linear": {"alpha": 0.0},
}


@pytest.fixture(scope="session")
def catalog_instances() -> list[tuple[str, RuledSurfaceSpec]]:
    return build_catalog_instances()


def latitude_jet(beta, phi, speed=1.0, accel=0.0, jerk=0.0) -> Jet3:
    """One row of u -> (cos b cos phi(u), cos b sin phi(u), sin b), given phi and its derivatives."""
    r = math.cos(beta)
    p = np.array([[math.cos(phi), math.sin(phi), 0.0]])
    t = np.array([[-math.sin(phi), math.cos(phi), 0.0]])
    return Jet3(
        d0=p * r + [0.0, 0.0, math.sin(beta)],
        d1=t * (r * speed),
        d2=p * (-r * speed * speed) + t * (r * accel),
        d3=t * (r * (jerk - speed**3)) + p * (-3.0 * r * speed * accel),
    )


def rodrigues(axis: np.ndarray, angle: float):
    """Rotation about an axis by an angle, as a map of a length-3 vector or of (N, 3) rows."""
    k = normalize(axis)
    c, s = math.cos(angle), math.sin(angle)

    def rotate(v):
        rows = np.atleast_2d(v)
        out = rows * c + cross(k, rows) * s + k * (dot(k, rows) * (1.0 - c))[:, None]
        return out[0] if v.ndim == 1 else out

    return rotate


def rotate_jet(rotate, jet: Jet3) -> Jet3:
    return Jet3(rotate(jet.d0), rotate(jet.d1), rotate(jet.d2), rotate(jet.d3))


def rotate_surface(rotate, surface: RuledSurfaceSpec) -> RuledSurfaceSpec:
    """The same surface moved rigidly (rotation only, so jets map directly)."""
    return RuledSurfaceSpec(
        base_curve=lambda u: tuple(map(rotate, surface.base_curve(u))),
        director=lambda u: rotate_jet(rotate, surface.director(u)),
        param_range=surface.param_range,
        provenance=dict(surface.provenance, rotated=True),
    )


def traced_peak(render, *args):
    """``render(*args)`` and the peak of memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = render(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
