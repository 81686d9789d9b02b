"""Invariance of the frame, the invariants and the verdicts under changes of
position, of orientation and of parameter: rigid motions with translation,
reversing u, and a monotone reparametrization u = phi(t).

Each test runs on every catalog instance and on one prescribed spec (a
tabulated profile with a ruling angle, so the base curve is not the striction
curve), the reparametrization also on one sampled spec; hypothesis draws the
motion, the sample count and phi.  The bound is 1e-13 relative to each
column's size for the rigid motions and the reversal, whose measured
differences are rounding, at most 2e-14 (the reversed s1, a cumulative sum).
The reparametrized columns agree to 1e-12 (measured at most 3.3e-14, on
kappa'), except s1: its quadrature integrates the speed in t, not in u, and
its fourth-order error differs with it, so it agrees to 1e-9 (measured at
most 5.6e-11).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_catalog_instances, rodrigues
from slantsurf import (
    Jet3,
    RuledSurfaceSpec,
    SampleGrid,
    catalog,
    classify_samples,
    frame_samples,
    load_surface,
    sampled_spec_document,
)
from slantsurf.geometry import norm

SURFACES = [
    *build_catalog_instances(),
    ("prescribed_tabulated", load_surface({
        "kind": "prescribed_kappa",
        "profile": {"type": "tabulated", "s1_knots": [0.0, 1.0, 2.0, 3.0],
                    "kappa_values": [0.0, 0.8, -0.4, 0.6]},
        "alpha": 0.3})),
]
VERDICTS = ("q_slant", "h_slant", "a_slant", "darboux_strict", "darboux_angular")
REL = 1e-13

each_surface = pytest.mark.parametrize("label, surface", SURFACES,
                                       ids=[label for label, _ in SURFACES])
counts = st.integers(64, 300)


def close(got, want, rel: float = REL) -> bool:
    """Agreement to ``rel`` of the column's largest magnitude (rows compared by norm)."""
    got, want = np.asarray(got), np.asarray(want)
    gap = norm(got - want) if want.ndim == 2 else np.abs(got - want)
    size = norm(want) if want.ndim == 2 else np.abs(want)
    return bool(gap.max() <= rel * (1.0 + size.max()))


def verdicts(samples) -> tuple:
    report = classify_samples(samples)
    return tuple(getattr(report, name).verdict for name in VERDICTS)


def moved(surface: RuledSurfaceSpec, rotate, shift: np.ndarray) -> RuledSurfaceSpec:
    """The surface rotated, then translated by ``shift``."""

    def base_curve(u):
        jet = surface.base_curve(u)
        return Jet3(rotate(jet.d0) + shift, rotate(jet.d1), rotate(jet.d2), rotate(jet.d3))

    def director(u):
        jet = surface.director(u)
        return Jet3(rotate(jet.d0), rotate(jet.d1), rotate(jet.d2), rotate(jet.d3))

    return RuledSurfaceSpec(base_curve, director, surface.param_range, surface.provenance)


def reparametrized(surface: RuledSurfaceSpec, eps: float):
    """The surface in t with u = phi(t) = t + eps*L/(2 pi)*sin(2 pi (t - lo)/L), and phi.

    phi fixes both ends of the range [lo, lo + L] and has phi' >= 1 - eps > 0;
    the jets in t follow from the jets in u by Faa di Bruno's formula.
    """
    lo, hi = surface.param_range
    w = 2.0 * math.pi / (hi - lo)

    def phi(t):
        theta = w * (t - lo)
        return np.clip(t + eps / w * np.sin(theta), lo, hi)

    def compose(curve):
        def jet(t):
            theta = w * (t - lo)
            p1 = (1.0 + eps * np.cos(theta))[:, None]
            p2 = (-eps * w * np.sin(theta))[:, None]
            p3 = (-eps * w * w * np.cos(theta))[:, None]
            j = curve(phi(t))
            return Jet3(j.d0, j.d1 * p1, j.d2 * (p1 * p1) + j.d1 * p2,
                        j.d3 * p1**3 + j.d2 * (3.0 * p1 * p2) + j.d1 * p3)

        return jet

    spec = RuledSurfaceSpec(compose(surface.base_curve), compose(surface.director),
                            surface.param_range, surface.provenance)
    return spec, phi


def reversed_in_u(surface: RuledSurfaceSpec) -> RuledSurfaceSpec:
    """The surface traversed backwards: u -> lo + hi - u, odd derivatives negated."""
    lo, hi = surface.param_range

    def flip(curve):
        def jet(u):
            j = curve(lo + hi - u)
            return Jet3(j.d0, -j.d1, j.d2, -j.d3)

        return jet

    return RuledSurfaceSpec(flip(surface.base_curve), flip(surface.director),
                            surface.param_range, surface.provenance)


@each_surface
@settings(derandomize=True, max_examples=6, deadline=None)
@given(count=counts,
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1),
       angle=st.floats(0.0, 2.0 * math.pi),
       shift=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_rigid_motion_keeps_invariants_and_moves_striction_points(label, surface, count, axis,
                                                                  angle, shift):
    rotate, shift = rodrigues(np.array(axis), angle), np.array(shift)
    grid = SampleGrid.uniform(surface.param_range, count)
    base = frame_samples(surface, grid)
    motion = frame_samples(moved(surface, rotate, shift), grid)
    assert close(motion.kappa, base.kappa), label
    assert close(motion.sigma, base.sigma), label
    assert close(motion.striction, rotate(base.striction) + shift), label
    assert verdicts(motion) == verdicts(base), label


@each_surface
@settings(derandomize=True, max_examples=3, deadline=None)
@given(count=counts)
def test_reversing_u_flips_the_normals_and_kappa(label, surface, count):
    # sample i of the reversed surface is sample count - 1 - i of the original,
    # at s1 = L - s1: kappa(s) -> -kappa(-s), sigma(s) -> sigma(-s)
    grid = SampleGrid.uniform(surface.param_range, count)
    base = frame_samples(surface, grid)
    back = frame_samples(reversed_in_u(surface), grid)
    assert close(back.s1, base.s1[-1] - base.s1[::-1]), label
    assert close(back.q, base.q[::-1]), label
    assert close(back.h, -base.h[::-1]), label
    assert close(back.a, -base.a[::-1]), label
    assert close(back.kappa, -base.kappa[::-1]), label
    assert close(back.kappa_prime, base.kappa_prime[::-1]), label
    assert close(back.sigma, base.sigma[::-1]), label
    assert close(back.striction, base.striction[::-1]), label
    assert verdicts(back) == verdicts(base), label


SAMPLED = ("sampled_constant_sigma",
           load_surface(sampled_spec_document(catalog("constant_sigma", {"d": 0.5}), 64)))


@pytest.mark.parametrize("label, surface", [*SURFACES, SAMPLED],
                         ids=[label for label, _ in [*SURFACES, SAMPLED]])
@settings(derandomize=True, max_examples=3, deadline=None)
@given(eps=st.floats(0.1, 0.8))
def test_reparametrizing_u_keeps_the_frame_and_the_invariants(label, surface, eps):
    # sample i of the reparametrized surface, at t_i, is the original at phi(t_i)
    spec, phi = reparametrized(surface, eps)
    grid = SampleGrid.uniform(surface.param_range, 256)
    base = frame_samples(surface, SampleGrid(phi(grid.u_values)))
    new = frame_samples(spec, grid)
    for name in ("kappa", "kappa_prime", "sigma", "q", "h", "a", "darboux", "striction"):
        assert close(getattr(new, name), getattr(base, name), rel=1e-12), (label, name)
    assert close(new.s1, base.s1, rel=1e-9), label
    assert verdicts(new) == verdicts(base), label
