"""Shared fixtures: reference surfaces and rigid-motion helpers."""

import math

import numpy as np
import pytest

from slantsurf import Jet3, RuledSurfaceSpec, catalog
from slantsurf.geometry import cross, dot, normalize

TABULATED_LINEAR = {"s1_knots": [0.0, 1.5, 3.0], "kappa_values": [0.0, 1.5, 3.0]}


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


@pytest.fixture(scope="session")
def catalog_instances() -> list[tuple[str, RuledSurfaceSpec]]:
    return build_catalog_instances()


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
    return Jet3(rotate(jet.d0), rotate(jet.d1), rotate(jet.d2), rotate(jet.d3),
                jet.param)


def rotate_surface(rotate, surface: RuledSurfaceSpec) -> RuledSurfaceSpec:
    """The same surface moved rigidly (rotation only, so jets map directly)."""
    return RuledSurfaceSpec(
        base_curve=lambda u: rotate_jet(rotate, surface.base_curve(u)),
        director=lambda u: rotate_jet(rotate, surface.director(u)),
        param_range=surface.param_range,
        provenance=dict(surface.provenance, rotated=True),
    )
