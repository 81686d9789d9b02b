"""Acceptance gate: ten numbered criteria, one test and one report line each.

Run ``pytest tests/test_acceptance.py -v`` to see a single pass/fail line
per criterion.  Tolerances are part of the contract and must not be
loosened here; if an implementation change breaks one of these, the change
is wrong, not the bound.
"""

import json
import math
import random

import numpy as np
import pytest

from conftest import EXPECTED, build_catalog_instances, rodrigues, rotate_surface
from slantsurf import (
    GeneratorConfig,
    ConstantKappa,
    SampleGrid,
    TabulatedKappa,
    build_surface,
    catalog,
    classify_samples,
    fd_jet,
    frame_samples,
    h_slant_axis,
    integrate_frame,
    verify_corollary_3_1,
)
from slantsurf.cli import parse_cli, run
from slantsurf.geometry import cross, dot, norm, normalize


def report(criterion: int, label: str) -> None:
    print(f"criterion {criterion}: PASS - {label}")


def interior(seq, margin=2):
    return seq[margin:-margin]


def test_c01_latitude_cone_curvature_oracle():
    """kappa = tan(beta) to 1e-9, W fixed to 1e-9, strict Darboux verdict."""
    for beta in (math.pi / 6, math.pi / 4, math.pi / 3):
        surface = catalog("latitude_cone", {"beta": beta})
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 256))
        want = math.tan(beta)
        assert np.abs(samples.kappa - want).max() < 1e-9
        w_mean = samples.darboux.sum(axis=0) / len(samples)
        assert norm(samples.darboux - w_mean).max() < 1e-9
        assert classify_samples(samples).darboux_strict.verdict
    report(1, "latitude cone curvature, fixed Darboux vector, strict verdict")


def test_c02_frame_derivative_residuals(catalog_instances):
    """FD frame derivatives match the frame equations and W x v to 1e-5."""
    worst = 0.0
    for label, surface in catalog_instances:
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 256))
        du = samples.u[1] - samples.u[0]
        # five-point derivatives over s1 at the samples 2 .. N-3
        s1p = norm(surface.director(samples.u).d1)[2:-2, None]

        def dds1(col):
            a, b, c, d = col[:-4], col[1:-3], col[3:-1], col[4:]
            return (a - b * 8.0 + c * 8.0 - d) / (12.0 * du * s1p)

        dq, dh, da = dds1(samples.q), dds1(samples.h), dds1(samples.a)
        u = samples.u[2:-2]
        q, h, a, w = (col[2:-2] for col in (samples.q, samples.h, samples.a, samples.darboux))
        k = samples.kappa[2:-2, None]
        matrix_residual = np.maximum.reduce([
            norm(dq - h),
            norm(dh - (-q + a * k)),
            norm(da - h * (-k)),
        ])
        cross_residual = np.maximum.reduce([
            norm(dq - cross(w, q)),
            norm(dh - cross(w, h)),
            norm(da - cross(w, a)),
        ])
        worst = max(worst, matrix_residual.max(), cross_residual.max())
        assert np.all(matrix_residual < 1e-5), (label, u[np.argmax(matrix_residual)])
        assert np.all(cross_residual < 1e-5), (label, u[np.argmax(cross_residual)])
    report(2, f"frame equation and Darboux-cross residuals (worst {worst:.2e})")


def random_tabulated_surfaces(count, seed=1234):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(4, 6)
        knots = [0.0]
        for _ in range(n - 1):
            knots.append(knots[-1] + rng.uniform(0.4, 0.8))
        values = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        profile = TabulatedKappa(tuple(knots), tuple(values))
        config = GeneratorConfig(profile=profile, step=0.01)
        out.append(build_surface(integrate_frame(config), config))
    return out


def test_c03_darboux_determinant_identity(catalog_instances):
    """|det(W, W', W'') - kappa'^2| < 1e-5 generally, < 1e-9 at constant kappa."""
    surfaces = [(label, s) for label, s in catalog_instances]
    surfaces += [(f"random_tabulated_{i}", s)
                 for i, s in enumerate(random_tabulated_surfaces(20))]
    for label, surface in surfaces:
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_corollary_3_1(surface, grid, tol=1e-5)
        det_check = next(c for c in record.checks
                         if c.name == "determinant_equals_kappa_prime_squared")
        assert det_check.value < 1e-5, label
        if "kappa_const" in EXPECTED.get(label, {}):
            assert det_check.value < 1e-9, label
    report(3, "determinant identity on catalog and 20 random tabulated surfaces")


def test_c04_constant_sigma_axis_round_trip():
    """sigma and the reconstructed axis are constant; <h, u> = d; converse holds."""
    for d in (0.25, 0.5):
        samples = frame_samples(
            catalog("constant_sigma", {"d": d}),
            SampleGrid.uniform(catalog("constant_sigma", {"d": d}).param_range, 256),
        )
        sig = classify_samples(samples).sigma_constancy
        assert sig.is_constant and sig.relative_spread < 1e-6
        c1, c2, c3 = h_slant_axis(samples.kappa, d)
        axes = samples.q * c1[:, None] + samples.h * c2 + samples.a * c3[:, None]
        mean = axes.sum(axis=0) / len(axes)
        assert norm(axes - mean).max() < 1e-6
        assert np.abs(dot(samples.h, axes) - d).max() < 1e-6
    linear = catalog("tabulated_kappa",
                     {"s1_knots": [0.0, 1.5, 3.0], "kappa_values": [0.0, 1.5, 3.0]})
    rep = classify_samples(
        frame_samples(linear, SampleGrid.uniform(linear.param_range, 256)))
    assert not rep.h_slant.verdict
    report(4, "constant-sigma axis fixed in space, converse rejects varying sigma")


def test_c05_darboux_cone_angle():
    """cos(angle between W and the axis) = 1/sqrt(1+d^2) to 1e-6."""
    want = {0.25: 0.9701425001453319, 0.5: 0.8944271909999159}
    for d, value in want.items():
        surface = catalog("constant_sigma", {"d": d})
        rep = classify_samples(
            frame_samples(surface, SampleGrid.uniform(surface.param_range, 256)))
        assert rep.darboux_angular.verdict
        assert abs(rep.darboux_angular.constant - value) < 1e-6
    report(5, "Darboux direction cone angles 0.9701425001 and 0.8944271910")


def test_c06_decomposition_algebra(catalog_instances):
    """kappa*a1 + a3 = <W, u> and a3 = <W, u>/(1+kappa^2) for u along W."""
    for label, surface in catalog_instances:
        if "kappa_const" not in EXPECTED[label]:
            continue
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 256))
        w_hat = normalize(samples.darboux[0])
        a1, a3 = dot(samples.q, w_hat), dot(samples.a, w_hat)
        proj = dot(samples.darboux, w_hat)
        assert np.all(np.abs(samples.kappa * a1 + a3 - proj) < 1e-9), label
        assert np.all(np.abs(a3 - proj / (1.0 + samples.kappa**2)) < 1e-9), label
    report(6, "fixed-axis expansion identities on constant-curvature surfaces")


def test_c07_generator_fidelity():
    """RK4 circle error < 1e-8, order ratio >= 12, striction recovered to 1e-6."""
    def circle_error(step):
        profile = ConstantKappa(0.0, (0.0, 2.0 * math.pi))
        path = integrate_frame(GeneratorConfig(profile=profile, step=step))
        return max(norm(q - [math.cos(s), math.sin(s), 0.0]) for s, q, h, a in path)

    assert circle_error(0.01) < 1e-8
    ratio = circle_error(0.05) / circle_error(0.025)
    assert ratio >= 12.0
    for params in ({"d": 0.25}, {"d": 0.5}):
        surface = catalog("constant_sigma", params)
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 128))
        assert norm(samples.striction - surface.base_curve(samples.u).d0).max() < 1e-6
    linear = catalog("tabulated_kappa",
                     {"s1_knots": [0.0, 1.5, 3.0], "kappa_values": [0.0, 1.5, 3.0]})
    samples = frame_samples(linear, SampleGrid.uniform(linear.param_range, 128))
    assert norm(samples.striction - linear.base_curve(samples.u).d0).max() < 1e-6
    report(7, f"RK4 circle fidelity and order (ratio {ratio:.1f}), striction recovery")


def test_c08_fd_oracle_agreement(catalog_instances):
    """fd_jet matches analytic jets: 1e-5 on d1 and d2, 1e-3 on d3."""
    rng = random.Random(97531)
    for label, surface in catalog_instances:
        lo, hi = surface.param_range
        step = 1e-3 * (hi - lo)
        u0 = np.array([rng.uniform(lo + 2.0 * step, hi - 2.0 * step) for _ in range(64)])
        for jet_of in (surface.director, surface.base_curve):
            want = jet_of(u0)
            got = fd_jet(lambda t: jet_of(t).d0, u0, step)
            assert np.all(norm(got.d1 - want.d1) <= 1e-5 * (1 + norm(want.d1))), label
            assert np.all(norm(got.d2 - want.d2) <= 1e-5 * (1 + norm(want.d2))), label
            assert np.all(norm(got.d3 - want.d3) <= 1e-3 * (1 + norm(want.d3))), label
    report(8, "five-point stencils agree with analytic jets at 64 points each")


def test_c09_rigid_motion_invariance(catalog_instances):
    """A fixed rotation moves no verdict, scalar, or detected axis by > 1e-9."""
    rotate = rodrigues(np.array([1.0, 2.0, 3.0]), 0.7)
    for label, surface in catalog_instances:
        grid = SampleGrid.uniform(surface.param_range, 256)
        base = classify_samples(frame_samples(surface, grid))
        moved = classify_samples(frame_samples(rotate_surface(rotate, surface), grid))
        for key in ("q_slant", "h_slant", "a_slant", "darboux_strict",
                    "darboux_angular"):
            v0, v1 = getattr(base, key), getattr(moved, key)
            assert v0.verdict == v1.verdict, (label, key)
            assert abs(v0.constant - v1.constant) < 1e-9, (label, key)
            if v0.verdict:
                want = rotate(v0.axis)
                direct = norm(v1.axis - want)
                flipped = norm(v1.axis + want)
                # the sign convention only bites when the angle is not right
                if abs(v0.constant) > 1e-3:
                    assert direct < 1e-9, (label, key)
                else:
                    assert min(direct, flipped) < 1e-9, (label, key)
        assert abs(base.kappa_constancy.mean - moved.kappa_constancy.mean) < 1e-9
        assert abs(base.sigma_constancy.mean - moved.sigma_constancy.mean) < 1e-9
    report(9, "classification is invariant under a fixed rigid rotation")


def test_c10_cli_contract(tmp_path):
    """Documented exit codes, report fields, and byte-identical reruns."""
    helicoid = tmp_path / "helicoid.json"
    helicoid.write_text(json.dumps({"kind": "catalog", "name": "helicoid"}))
    sigma = tmp_path / "cs.json"
    sigma.write_text(json.dumps(
        {"kind": "catalog", "name": "constant_sigma", "params": {"d": 0.5}}))
    n = 24
    u = [0.1 * k for k in range(n)]
    cyl = tmp_path / "cyl.json"
    cyl.write_text(json.dumps({"kind": "sampled", "u": u,
                               "f": [[t, 0.0, 0.0] for t in u],
                               "q": [[0.0, 0.0, 1.0]] * n}))

    out = tmp_path / "helicoid_report.json"
    assert run(parse_cli(["analyze", "--surface", str(helicoid),
                          "--out", str(out)])) == 0
    doc = json.loads(out.read_text())
    assert all(abs(row["kappa"]) < 1e-12 for row in doc["samples"])

    out2 = tmp_path / "sigma_report.json"
    assert run(parse_cli(["classify", "--surface", str(sigma),
                          "--out", str(out2)])) == 0
    slant = json.loads(out2.read_text())["slant"]
    assert slant["h"]["verdict"] is True
    assert slant["darboux_strict"]["verdict"] is False
    assert slant["darboux_angular"]["verdict"] is True

    assert run(parse_cli(["analyze", "--surface", str(cyl),
                          "--out", str(tmp_path / "cyl_report.json")])) == 2

    snapshots = []
    for tag in ("a", "b"):
        rpt = tmp_path / f"det_{tag}.json"
        run(parse_cli(["analyze", "--surface", str(sigma), "--out", str(rpt),
                       "--csv"]))
        obj = tmp_path / f"det_{tag}.obj"
        run(parse_cli(["export", "--surface", str(helicoid), "--out", str(obj)]))
        gen = tmp_path / f"det_{tag}_gen.json"
        run(parse_cli(["generate", "--surface", str(sigma), "--out", str(gen)]))
        snapshots.append((rpt.read_bytes(), rpt.with_suffix(".csv").read_bytes(),
                          obj.read_bytes(), gen.read_bytes()))
    assert snapshots[0] == snapshots[1]
    report(10, "exit codes, report fields, byte-identical reruns")
