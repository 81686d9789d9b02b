"""Slant classification of ruled surfaces and audits of its governing facts.

A ruled surface is q-, h- or a-slant when the corresponding frame vector
keeps a constant, non-right angle with some fixed direction.  Two Darboux
flavours are tracked separately on purpose:

* ``darboux_strict``: the raw projection <W, u> is constant for a fixed u.
  This forces the conical curvature kappa to be constant, so W itself is a
  fixed vector.
* ``darboux_angular``: the angle of W against a fixed direction is constant,
  i.e. <W/|W|, u> is constant.  Every h-slant surface is angular Darboux
  slant even when kappa varies.

The two notions agree on constant-kappa surfaces and split exactly on
h-slant surfaces with non-constant kappa; reports always carry both.

Axis detection is algebraic: if <v, u> is constant then every finite
difference of v is orthogonal to u, so u spans the near-null space of the
Gram matrix M = sum v'v'^T.  The smallest eigenvalue of M, normalized by its
trace, is the detection residual.

Everything reads the columns of a ``FrameTable``.  Audits take optional
``samples`` and ``report``, their classification, so one of each feeds all
five; given both, an audit neither samples nor classifies.  Each audit has
one bound, ``tol`` (by default 1e-6 for 2.1, 3.1 and 3.2, 1e-5 for cor3.1
and 1e-9 for 3.3-3.4): it decides whether the audit's hypothesis holds
(kappa or sigma constancy and the h-slant and strict Darboux verdicts,
re-read from the report's tol-free spreads and fits) and bounds every check
of its consequences.  The right-angle margin is the report's ``angle_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .frame import FrameTable, RuledSurfaceSpec, SampleGrid, frame_samples
from .geometry import det3, dot, norm, normalize, power

__all__ = [
    "EmptyInput",
    "ConstancyResult",
    "AxisFit",
    "SlantVerdict",
    "SlantReport",
    "AuditCheck",
    "AuditRecord",
    "constancy",
    "detect_axis",
    "h_slant_axis",
    "classify",
    "classify_samples",
    "verify_theorem_2_1",
    "verify_theorem_3_1",
    "verify_corollary_3_1",
    "verify_theorem_3_2",
    "verify_theorems_3_3_3_4",
]

# a vector whose samples spread by less than this fraction of its size is
# constant: rounding alone spreads a fixed vector by 3e-16 to 1.3e-15 of it
CONSTANT_SPREAD = 1e-13
EIGENVALUE_TIE = 1e-12
MIN_AXIS_SAMPLES = 16


class EmptyInput(ValueError):
    """No values were supplied where at least one is required."""


@dataclass(frozen=True, slots=True)
class ConstancyResult:
    """Spread diagnostics of a scalar sample sequence."""

    mean: float
    spread: float
    relative_spread: float
    is_constant: bool


def _mean(values: np.ndarray) -> float:
    """The same value ``statistics.fmean`` gives: an exact sum over the count."""
    return math.fsum(values.tolist()) / len(values)


def constancy(values: Sequence[float] | np.ndarray, tol: float) -> ConstancyResult:
    """Decide whether a sampled scalar is constant.

    The spread max - min is normalized by 1 + |mean| so the verdict keeps
    meaning for values near zero and large values alike.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise EmptyInput("constancy of an empty sample list is undefined")
    mean = _mean(values)
    spread = float(values.max() - values.min())
    relative = spread / (1.0 + abs(mean))
    return ConstancyResult(mean, spread, relative, relative < tol)


def _mean_vec(rows: np.ndarray) -> np.ndarray:
    return np.array([_mean(column) for column in rows.T])


@dataclass(frozen=True, slots=True, eq=False)
class AxisFit:
    """Candidate fixed axis for one frame vector.

    ``residual`` is the smallest eigenvalue of the derivative Gram matrix
    over its trace, in [0, 1/3]; zero means a perfectly fixed angle.  A
    degenerate fit means the vector itself was constant (its samples spread
    by less than ``CONSTANT_SPREAD`` of its size) and the axis is the
    vector's own mean direction.  ``tied`` flags an ambiguous near-null
    space (two smallest eigenvalues coincide relative to the trace): no
    unique axis exists and the vector must not be called slant.  Both tests
    are scale-free, so a vector with small but real motion is not tied.
    """

    axis: np.ndarray
    residual: float
    eigenvalues: tuple[float, float, float]
    degenerate: bool
    tied: bool


def detect_axis(vectors: np.ndarray, s1_values: np.ndarray) -> AxisFit:
    """Least-squares fixed-angle axis of (N, 3) vector samples over s1.

    Central differences of the samples feed the Gram matrix M = sum v'v'^T;
    the returned axis, a length-3 array, is the eigenvector of the smallest
    eigenvalue, with sign fixed so the mean of <v, axis> is non-negative.
    """
    n = len(vectors)
    if n < MIN_AXIS_SAMPLES:
        raise ValueError(f"axis detection needs at least {MIN_AXIS_SAMPLES} samples, got {n}")
    if len(s1_values) != n:
        raise ValueError("s1_values must match the sample count")

    derivs = (vectors[2:] - vectors[:-2]) / (s1_values[2:] - s1_values[:-2])[:, None]
    gram = derivs.T @ derivs
    trace = float(np.trace(gram))
    # the diameter of the samples, bounded from their componentwise spreads
    spread = norm(vectors.max(axis=0) - vectors.min(axis=0))

    # a zero trace with a real spread is motion central differences miss
    # (an odd-even oscillation); it has no axis either
    if spread <= CONSTANT_SPREAD * norm(vectors).max() or not trace > 0.0:
        mean = _mean_vec(vectors)
        axis = normalize(mean) if norm(mean) > 0.0 else np.array([1.0, 0.0, 0.0])
        return AxisFit(axis, 0.0, (0.0, 0.0, 0.0), True, False)

    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    axis = eigenvectors[:, 0]
    residual = max(float(eigenvalues[0]), 0.0) / trace
    tied = float(eigenvalues[1] - eigenvalues[0]) <= EIGENVALUE_TIE * trace
    if _mean(dot(vectors, axis)) < 0.0:
        axis = -axis
    return AxisFit(axis, residual, tuple(float(w) for w in eigenvalues), False, tied)


def h_slant_axis(kappa, d: float):
    """Frame coefficients (coeff_q, coeff_h, coeff_a) of the h-slant axis.

    For a surface whose slant invariant sigma is the constant d, the fixed
    axis of the central normal reads

        u = kappa/sqrt(1+kappa^2) * q + d * h + 1/sqrt(1+kappa^2) * a,

    with |u| = sqrt(1 + d^2) and <h, u> = d by construction.  ``kappa`` may
    be a value or an array.
    """
    root = np.sqrt(1.0 + kappa * kappa)
    return (kappa / root, d, 1.0 / root)


def _h_slant_axes(samples: FrameTable, d: float) -> np.ndarray:
    """The h-slant axis rebuilt from the frame at every sample, (N, 3)."""
    cq, ch, ca = h_slant_axis(samples.kappa, d)
    return samples.q * cq[:, None] + samples.h * ch + samples.a * ca[:, None]


@dataclass(frozen=True, slots=True, eq=False)
class SlantVerdict:
    """Outcome of a single fixed-angle question; ``tied`` is the fit's flag."""

    verdict: bool
    axis: np.ndarray
    constant: float
    residual: float
    spread: float
    tied: bool

    def holds_at(self, tol: float, angle_tol: float | None = None) -> bool:
        """The fixed-angle rule at ``tol``, from the tol-free fit and spread.

        Given ``angle_tol``, the constant must also differ from a right
        angle by more than it: a constant right angle does not count as slant.
        """
        relative = self.spread / (1.0 + abs(self.constant))
        return (self.residual < tol and relative < tol and not self.tied
                and (angle_tol is None or abs(self.constant) > angle_tol))


@dataclass(frozen=True)
class SlantReport:
    """Full slant classification of one surface sampling."""

    q_slant: SlantVerdict
    h_slant: SlantVerdict
    a_slant: SlantVerdict
    darboux_strict: SlantVerdict
    darboux_angular: SlantVerdict
    kappa_constancy: ConstancyResult
    sigma_constancy: ConstancyResult
    tol: float
    angle_tol: float


def _direction_verdict(vectors: np.ndarray, s1_values: np.ndarray, tol: float,
                       right_angle_margin: float | None) -> SlantVerdict:
    fit = detect_axis(vectors, s1_values)
    const = constancy(dot(vectors, fit.axis), tol)
    verdict = SlantVerdict(False, fit.axis, const.mean, fit.residual, const.spread, fit.tied)
    return replace(verdict, verdict=verdict.holds_at(tol, right_angle_margin))


def classify_samples(
    samples: FrameTable, tol: float = 1e-6, angle_tol: float = 1e-3
) -> SlantReport:
    """Classify already-sampled frame data; see ``classify``."""
    if len(samples) < MIN_AXIS_SAMPLES:
        raise ValueError(f"classification needs at least {MIN_AXIS_SAMPLES} samples")
    s1 = samples.s1
    return SlantReport(
        q_slant=_direction_verdict(samples.q, s1, tol, angle_tol),
        h_slant=_direction_verdict(samples.h, s1, tol, angle_tol),
        a_slant=_direction_verdict(samples.a, s1, tol, angle_tol),
        darboux_strict=_direction_verdict(samples.darboux, s1, tol, None),
        darboux_angular=_direction_verdict(normalize(samples.darboux), s1, tol, None),
        kappa_constancy=constancy(samples.kappa, tol),
        sigma_constancy=constancy(samples.sigma, tol),
        tol=tol,
        angle_tol=angle_tol,
    )


def classify(
    surface: RuledSurfaceSpec,
    grid: SampleGrid,
    tol: float = 1e-6,
    angle_tol: float = 1e-3,
) -> SlantReport:
    """Sample the surface on ``grid`` and answer all five slant questions.

    A verdict is true when the detection residual and the spread of the
    projection onto the detected axis both stay below ``tol``; for the
    frame-vector questions the constant angle must additionally differ from
    a right angle by more than ``angle_tol``.
    """
    return classify_samples(frame_samples(surface, grid), tol, angle_tol)


@dataclass(frozen=True, slots=True)
class AuditCheck:
    """One numeric assertion inside an audit: ok iff value <= bound."""

    name: str
    value: float
    bound: float
    ok: bool


@dataclass
class AuditRecord:
    """Outcome of auditing one classification fact on one surface.

    ``passed`` is None when the fact's hypothesis does not hold on this
    surface, so there was nothing to test.
    """

    audit: str
    applicable: bool
    passed: bool | None
    checks: list[AuditCheck]
    notes: list[str]


def _check(checks: list[AuditCheck], name: str, residual: float | np.ndarray,
           bound: float) -> None:
    """Record the largest |residual|, of a per-sample array or a scalar, against ``bound``."""
    value = float(np.max(np.abs(residual)))
    checks.append(AuditCheck(name, value, bound, value <= bound))


def _finish(audit: str, applicable: bool, checks: list[AuditCheck], notes: list[str]) -> AuditRecord:
    passed = all(c.ok for c in checks) if applicable else None
    return AuditRecord(audit, applicable, passed, checks, notes)


def _inputs(surface: RuledSurfaceSpec, grid: SampleGrid, tol: float,
            samples: FrameTable | None, report: SlantReport | None):
    """The frame table and classification an audit reads: those given, else
    sampled on ``grid`` and classified at the audit's own tol."""
    if samples is None:
        samples = frame_samples(surface, grid)
    if report is None:
        report = classify_samples(samples, tol)
    return samples, report


def verify_theorem_2_1(
    surface: RuledSurfaceSpec,
    grid: SampleGrid,
    tol: float = 1e-6,
    samples: FrameTable | None = None,
    report: SlantReport | None = None,
) -> AuditRecord:
    """Audit: sigma is constant exactly when the surface is h-slant.

    Forward direction: when sigma is a constant d (away from zero), the
    reconstructed axis kappa/sqrt(1+kappa^2) q + d h + 1/sqrt(1+kappa^2) a
    must be one fixed world vector, the central normal must keep <h, u> = d
    against it, and the a-coefficient scaled by sqrt(1+kappa^2) must be
    constant.  Reverse direction: an h-slant verdict forces constant sigma.
    """
    samples, report = _inputs(surface, grid, tol, samples, report)
    checks: list[AuditCheck] = []
    notes: list[str] = []
    sigma_const = report.sigma_constancy
    sigma_constant = sigma_const.relative_spread < tol

    if sigma_constant and abs(sigma_const.mean) > report.angle_tol:
        d = sigma_const.mean
        axes = _h_slant_axes(samples, d)
        # the diameter of the cloud of axes, bounded from its componentwise spreads
        spread = norm(axes.max(axis=0) - axes.min(axis=0))
        _check(checks, "reconstructed_axis_is_one_world_vector", spread, tol)
        axis_mean = _mean_vec(axes)
        _check(checks, "central_normal_angle_equals_sigma", dot(samples.h, axis_mean) - d, tol)
        scaled = dot(samples.a, axis_mean) * np.sqrt(1.0 + samples.kappa * samples.kappa)
        _check(checks, "a_coefficient_scale_is_constant",
               constancy(scaled, tol).relative_spread, tol)
    elif sigma_constant:
        notes.append(
            "forward direction skipped: sigma is constant but within angle_tol of zero,"
            " the excluded right-angle case"
        )
    else:
        notes.append("forward direction vacuous: sigma is not constant on this sampling")

    if report.h_slant.holds_at(tol, report.angle_tol):
        _check(checks, "h_slant_forces_constant_sigma", sigma_const.relative_spread, tol)
    else:
        notes.append("reverse direction vacuous: surface is not h-slant")
        if not sigma_constant:
            notes.append("consistent: sigma non-constant and h-slant verdict false")

    return _finish("2.1", True, checks, notes)


def verify_theorem_3_1(
    surface: RuledSurfaceSpec,
    grid: SampleGrid,
    tol: float = 1e-6,
    samples: FrameTable | None = None,
    report: SlantReport | None = None,
) -> AuditRecord:
    """Audit: strict Darboux slant forces constant kappa, and constant kappa
    freezes the Darboux vector in space."""
    samples, report = _inputs(surface, grid, tol, samples, report)
    checks: list[AuditCheck] = []
    notes: list[str] = []
    kappa_const = report.kappa_constancy

    if report.darboux_strict.holds_at(tol):
        _check(checks, "strict_darboux_forces_constant_kappa", kappa_const.relative_spread, tol)
    else:
        notes.append("implication vacuous: no strict Darboux verdict on this sampling")

    if kappa_const.relative_spread < tol:
        _check(checks, "constant_kappa_fixes_darboux_vector",
               norm(samples.darboux - _mean_vec(samples.darboux)), tol)
    else:
        notes.append("converse vacuous: kappa is not constant on this sampling")

    return _finish("3.1", True, checks, notes)


def verify_corollary_3_1(
    surface: RuledSurfaceSpec,
    grid: SampleGrid,
    tol: float = 1e-5,
    samples: FrameTable | None = None,
    report: SlantReport | None = None,
) -> AuditRecord:
    """Audit: det(W, W', W'') = (kappa')^2 on every sampling.

    W' = kappa' q and W'' = kappa'' q + kappa' h follow from the frame
    motion.  The kappa'' q term is parallel to W' and drops out of the
    determinant, so W'' is taken as kappa' h.
    When the surface is strict Darboux slant the determinant must vanish;
    that verdict is re-read at ``tol`` from the report's fit.
    """
    samples, report = _inputs(surface, grid, tol, samples, report)
    checks: list[AuditCheck] = []
    notes: list[str] = []
    kp = samples.kappa_prime[:, None]
    dets = det3(samples.darboux, samples.q * kp, samples.h * kp)
    _check(checks, "determinant_equals_kappa_prime_squared",
           dets - power(samples.kappa_prime, 2), tol)

    if report.darboux_strict.holds_at(tol):
        _check(checks, "determinant_vanishes_on_strict_darboux", dets, tol)
    else:
        notes.append("vanishing clause vacuous: no strict Darboux verdict")
    return _finish("cor3.1", True, checks, notes)


def verify_theorem_3_2(
    surface: RuledSurfaceSpec,
    grid: SampleGrid,
    tol: float = 1e-6,
    samples: FrameTable | None = None,
    report: SlantReport | None = None,
) -> AuditRecord:
    """Audit: an h-slant surface is angular Darboux slant.

    With sigma constant equal to d (the cosine read against the raw h-slant
    axis u, |u| = sqrt(1+d^2)), the normalized Darboux vector keeps the
    constant cosine 1/sqrt(1+d^2) against u's direction.
    """
    samples, report = _inputs(surface, grid, tol, samples, report)
    checks: list[AuditCheck] = []
    notes: list[str] = []
    sigma_const = report.sigma_constancy
    sigma_constant = sigma_const.relative_spread < tol
    if not (report.h_slant.holds_at(tol, report.angle_tol) and sigma_constant
            and abs(sigma_const.mean) > report.angle_tol):
        notes.append("not applicable: surface is not h-slant on this sampling")
        return _finish("3.2", False, checks, notes)

    d = sigma_const.mean
    axis_mean = _mean_vec(_h_slant_axes(samples, d))
    _check(checks, "axis_norm_is_sqrt_one_plus_d_squared",
           norm(axis_mean) - math.sqrt(1.0 + d * d), tol)
    cos_const = constancy(dot(normalize(samples.darboux), normalize(axis_mean)), tol)
    _check(checks, "darboux_angle_is_constant", cos_const.relative_spread, tol)
    _check(checks, "darboux_cosine_matches_axis_norm_reciprocal",
           cos_const.mean - 1.0 / math.sqrt(1.0 + d * d), tol)
    return _finish("3.2", True, checks, notes)


def verify_theorems_3_3_3_4(
    surface: RuledSurfaceSpec,
    grid: SampleGrid,
    tol: float = 1e-9,
    samples: FrameTable | None = None,
    axes: Sequence[tuple[str, np.ndarray]] | None = None,
    report: SlantReport | None = None,
) -> AuditRecord:
    """Audit the frame decomposition of fixed axes on constant-kappa surfaces.

    For any fixed unit axis u with coefficients (a1, a2, a3) in {q, h, a}:
    kappa*a1 + a3 must equal the constant C = <W, u> at every sample, to
    within tol relative to |W| = sqrt(1 + kappa^2); a2 is constant exactly
    when a3 is, and then a3 = C / (1 + kappa^2).  The default axis is the
    direction of the (fixed) Darboux vector; callers may supply extra axes
    to exercise the vacuous branches.

    Not applicable when kappa is not constant, because then no fixed axis
    keeps <W, u> constant and the hypotheses are empty.  Kappa constancy is
    read from ``report`` at ``tol``, the bound of every check; no slant
    verdict is read.
    """
    samples, report = _inputs(surface, grid, tol, samples, report)
    kappa_const = report.kappa_constancy
    if not kappa_const.relative_spread < tol:
        return _finish("3.3-3.4", False, [], [
            "the decomposition audit needs constant conical curvature "
            f"(relative spread {kappa_const.relative_spread:.3e})"
        ])
    checks: list[AuditCheck] = []
    notes: list[str] = []
    kappa_mean = kappa_const.mean
    # with vanishing curvature a is fixed, so a3 is constant no matter what
    # a2 does: the equivalence has no content, and a3 alone decides the lock
    flat = abs(kappa_mean) <= report.angle_tol
    w_norm = math.sqrt(1.0 + kappa_mean * kappa_mean)

    axis_list: list[tuple[str, np.ndarray]] = [
        ("darboux_direction", normalize(_mean_vec(samples.darboux)))
    ]
    if axes:
        axis_list.extend(axes)

    for name, axis in axis_list:
        a1, a2, a3 = dot(samples.q, axis), dot(samples.h, axis), dot(samples.a, axis)
        c_value = _mean(dot(samples.darboux, axis))
        _check(checks, f"{name}: expansion_matches_darboux_projection",
               (samples.kappa * a1 + a3 - c_value) / w_norm, tol)

        a2_const = constancy(a2, tol)
        a3_const = constancy(a3, tol)
        if flat:
            notes.append(f"{name}: coefficient equivalence vacuous (curvature vanishes)")
        else:
            _check(checks, f"{name}: central_and_third_coefficient_constancy_agree",
                   0.0 if a2_const.is_constant == a3_const.is_constant else 1.0, 0.5)
        if a3_const.is_constant and (flat or a2_const.is_constant):
            _check(checks, f"{name}: third_coefficient_locks_to_projection_over_norm_squared",
                   a3 - c_value / (1.0 + kappa_mean * kappa_mean), tol)
            if not flat:
                _check(checks, f"{name}: first_coefficient_constant_in_turn",
                       constancy(a1, tol).relative_spread, tol)
        elif not flat:
            notes.append(f"{name}: coefficient constancy clauses vacuous (a2 varies)")

    return _finish("3.3-3.4", True, checks, notes)
