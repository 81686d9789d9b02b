"""Invariance of the frame, the invariants and the verdicts under changes of
position and of orientation: rigid motions with translation, and reversing u.

Each test runs on every catalog instance and on one prescribed spec (a
tabulated profile with a ruling angle, so the base curve is not the striction
curve); hypothesis draws the motion and the sample count.  The bound is 1e-13
relative to each column's size; the measured differences are rounding, at
most 2e-14 (the reversed s1, a cumulative sum).
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
    classify_samples,
    frame_samples,
    load_surface,
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


def close(got, want) -> bool:
    """Agreement to ``REL`` of the column's largest magnitude (rows compared by norm)."""
    got, want = np.asarray(got), np.asarray(want)
    gap = norm(got - want) if want.ndim == 2 else np.abs(got - want)
    size = norm(want) if want.ndim == 2 else np.abs(want)
    return bool(gap.max() <= REL * (1.0 + size.max()))


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
