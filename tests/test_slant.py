"""Axis detection, slant classification, and the identity audits."""

import dataclasses
import json
import math

import numpy as np
import pytest

import slantsurf.cli
import slantsurf.slant
from slantsurf import (
    EmptyInput,
    SampleGrid,
    catalog,
    classify,
    classify_samples,
    constancy,
    detect_axis,
    frame_samples,
    h_slant_axis,
    load_surface,
    sampled_spec_document,
    verify_corollary_3_1,
    verify_theorem_2_1,
    verify_theorem_3_1,
    verify_theorem_3_2,
    verify_theorems_3_3_3_4,
)
from slantsurf.cli import main
from slantsurf.geometry import dot, norm

EX, EY, EZ = np.eye(3)


def samples_of(surface, count=256):
    return frame_samples(surface, SampleGrid.uniform(surface.param_range, count))


class TestConstancy:
    def test_exact_constant(self):
        r = constancy([2.0, 2.0, 2.0], 1e-12)
        assert r.mean == 2.0 and r.spread == 0.0 and r.is_constant

    def test_spread_and_relative_spread(self):
        r = constancy([1.0, 2.0], 0.4)
        assert r.spread == 1.0
        assert r.relative_spread == pytest.approx(1.0 / 2.5)
        assert not r.is_constant

    def test_relative_spread_uses_one_plus_mean(self):
        # near-zero means must not blow the ratio up
        r = constancy([-1e-9, 1e-9], 1e-6)
        assert r.is_constant

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            constancy([], 1e-6)


class TestDetectAxis:
    def test_constant_vectors_are_degenerate(self):
        fit = detect_axis(np.tile(EZ, (20, 1)), np.arange(20))
        assert fit.degenerate
        assert fit.residual == 0.0
        assert norm(fit.axis - EZ) < 1e-15

    def test_latitude_circle_recovers_polar_axis(self):
        beta = math.pi / 5
        t = 0.17 * np.arange(40)
        qs = np.stack([math.cos(beta) * np.cos(t), math.cos(beta) * np.sin(t),
                       np.full(40, math.sin(beta))], axis=-1)
        fit = detect_axis(qs, np.arange(40))
        assert not fit.degenerate and not fit.tied
        assert fit.residual < 1e-12
        # sign convention: mean projection is non-negative
        assert norm(fit.axis - EZ) < 1e-7
        assert dot(qs, fit.axis) == pytest.approx(math.sin(beta), abs=1e-7)

    def test_equator_circle_axis_found_but_projection_vanishes(self):
        t = 0.21 * np.arange(40)
        qs = np.stack([np.cos(t), np.sin(t), np.zeros(40)], axis=-1)
        fit = detect_axis(qs, np.arange(40))
        assert fit.residual < 1e-12
        assert abs(dot(qs[0], fit.axis)) < 1e-9  # right angle, not slant

    def test_straight_line_motion_ties(self):
        # derivatives all parallel: every axis in the normal plane fits
        k = np.arange(20)
        vectors = np.stack([np.ones(20), 0.05 * k, np.zeros(20)], axis=-1)
        fit = detect_axis(vectors, k)
        assert fit.tied

    def test_rounding_level_motion_does_not_tie(self):
        # a fixed vector plus motion far above rounding but far below 1:
        # the tie test is relative to the trace, as for any other scale
        t = np.arange(40)
        vectors = np.tile(EX + EZ, (40, 1)) + 1e-9 * np.stack(
            [np.sin(t), np.cos(t), 0.3 * np.sin(2.0 * t)], axis=-1)
        fit = detect_axis(vectors, t)
        assert 1e-18 < sum(fit.eigenvalues) < 1e-12
        assert not fit.degenerate and not fit.tied

    def test_odd_even_oscillation_is_degenerate(self):
        # central differences cannot see this motion: the Gram trace is exactly 0
        vectors = np.tile(EZ, (20, 1))
        vectors[::2] = EX
        fit = detect_axis(vectors, np.arange(20))
        assert fit.degenerate and fit.residual == 0.0

    @pytest.mark.parametrize("beta,count", [(1.35, 16384), (1.5, 4096)])
    def test_steep_cone_darboux_vector_is_constant(self, beta, count):
        # W is fixed up to rounding, yet fine s1 steps lift its Gram trace past 1e-18
        samples = samples_of(catalog("latitude_cone", {"beta": beta}), count)
        assert detect_axis(samples.darboux, samples.s1).degenerate
        assert classify_samples(samples).darboux_strict.verdict

    def test_generated_constant_kappa_darboux_vector_moves(self):
        # RK4 spreads W by 1e-11 of its size: real motion, not rounding
        surface = load_surface({"kind": "prescribed_kappa",
                                "profile": {"type": "constant", "kappa0": 0.7},
                                "s1_range": [0.0, 2.0], "step": 0.013})
        samples = samples_of(surface, 128)
        assert not detect_axis(samples.darboux, samples.s1).degenerate

    def test_needs_sixteen_samples(self):
        with pytest.raises(ValueError):
            detect_axis(np.tile(EZ, (15, 1)), np.arange(15))


EPS = np.finfo(float).eps


def jacobi_against_eigh(m: np.ndarray):
    """The Jacobi solve of ``m`` checked against LAPACK's: ascending
    eigenvalues within 8 ulps of the trace, orthonormal eigenvectors, and
    M V = V diag(w) to the same size.  Returns both solves."""
    w, v = slantsurf.slant._jacobi_eigh(m.tolist())
    w_ref, v_ref = np.linalg.eigh(m)
    ulp = EPS * np.trace(m)
    assert w == sorted(w)
    assert np.abs(np.array(w) - w_ref).max() <= 8 * ulp
    assert np.abs(v.T @ v - np.eye(3)).max() <= 8 * EPS
    assert np.abs(m @ v - v * w).max() <= 8 * ulp
    return w, v, w_ref, v_ref


class TestJacobiEigh:
    """The axis fit's eigensolver on symmetric positive semidefinite 3x3 matrices."""

    @pytest.mark.parametrize("exponent", [-150, -100, -50, 0, 50, 100, 150])
    @pytest.mark.parametrize("rank", [3, 2, 1])
    def test_random_matrices_match_lapack(self, exponent, rank):
        rng = np.random.default_rng(1000 * rank + exponent)
        for _ in range(40):
            b = rng.standard_normal((3, rank)) * 10.0 ** (exponent / 2)
            w, v, w_ref, v_ref = jacobi_against_eigh(b @ b.T)
            trace = sum(w)
            if rank < 3:
                # the null space is found to within rounding of the trace
                assert max(abs(x) for x in w[:3 - rank]) <= 8 * EPS * trace
            if w_ref[1] - w_ref[0] > 1e-3 * trace:
                # the smallest eigenvector is unique: the same up to sign
                assert min(norm(v[:, 0] - v_ref[:, 0]), norm(v[:, 0] + v_ref[:, 0])) < 1e-12

    @pytest.mark.parametrize("diagonal", [(3.0, 1e-20, 7.0), (0.0, 2.0, 1.0),
                                          (1e150, 1e-150, 1.0), (5.0, 5.0, 5.0)])
    def test_diagonal_matrices_are_exact(self, diagonal):
        w, v = slantsurf.slant._jacobi_eigh(np.diag(diagonal).tolist())
        assert w == sorted(diagonal)
        assert np.array_equal(np.abs(v).T @ np.array(diagonal), np.array(w))
        assert np.array_equal(np.abs(v).sum(axis=0), np.ones(3))

    @pytest.mark.parametrize("m, expected", [
        ([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]], (1.0, 3.0, 3.0)),
        ([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]], (1.0, 1.0, 4.0)),
        ([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]], (3.0, 3.0, 3.0)),
    ], ids=["double-tie-largest", "double-tie-smallest", "triple-tie"])
    def test_exact_ties(self, m, expected):
        w, _, _, _ = jacobi_against_eigh(np.array(m))
        assert w == pytest.approx(expected, abs=4 * EPS * sum(expected))
        if expected[0] == expected[1]:
            assert w[1] - w[0] <= slantsurf.slant.EIGENVALUE_TIE * sum(w)

    def test_rotated_double_tie_stays_tied(self):
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
        w, _, _, _ = jacobi_against_eigh((q * (2.0, 2.0, 9.0)) @ q.T)
        assert w[1] - w[0] <= slantsurf.slant.EIGENVALUE_TIE * sum(w)


class TestHSlantAxis:
    def test_zero_curvature(self):
        assert h_slant_axis(0.0, 0.5) == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("kappa,d", [(0.7, 0.25), (-1.3, 0.5), (2.0, 1.0)])
    def test_norm_is_sqrt_one_plus_d_squared(self, kappa, d):
        c1, c2, c3 = h_slant_axis(kappa, d)
        assert c1 * c1 + c2 * c2 + c3 * c3 == pytest.approx(1 + d * d, rel=1e-15)
        # the q and a weights trace the unit Darboux direction
        assert c1 == pytest.approx(kappa * c3, rel=1e-15)


VERDICT_CASES = [
    ("helicoid", {}, (False, False, True, True, True)),
    ("latitude_cone", {"beta": math.pi / 6}, (True, False, True, True, True)),
    ("latitude_cone", {"beta": math.pi / 3}, (True, False, True, True, True)),
    ("hyperboloid", {"r": 1.0, "pitch": 1.0}, (True, False, True, True, True)),
    ("radial_plane", {}, (False, False, True, True, True)),
    ("constant_sigma", {"d": 0.25}, (False, True, False, False, True)),
    ("constant_sigma", {"d": 0.5}, (False, True, False, False, True)),
    ("tabulated_kappa", {"s1_knots": [0.0, 1.5, 3.0],
                         "kappa_values": [0.0, 1.5, 3.0]},
     (False, False, False, False, False)),
]


class TestClassify:
    @pytest.mark.parametrize("name,params,want", VERDICT_CASES)
    def test_catalog_verdicts(self, name, params, want):
        surface = catalog(name, params)
        report = classify(surface, SampleGrid.uniform(surface.param_range, 256))
        got = (
            report.q_slant.verdict,
            report.h_slant.verdict,
            report.a_slant.verdict,
            report.darboux_strict.verdict,
            report.darboux_angular.verdict,
        )
        assert got == want

    def test_latitude_cone_constants(self):
        beta = math.pi / 6
        report = classify_samples(samples_of(catalog("latitude_cone", {"beta": beta})))
        assert report.q_slant.constant == pytest.approx(0.5, abs=1e-9)
        assert report.a_slant.constant == pytest.approx(0.8660254037844387, abs=1e-9)
        assert report.darboux_strict.constant == pytest.approx(
            1.1547005383792517, abs=1e-9)  # |W| = 1/cos(beta)
        assert norm(report.a_slant.axis - EZ) < 1e-9

    @pytest.mark.parametrize("d,h_const,cos_const", [
        (0.25, 0.24253562503633297, 0.9701425001453319),
        (0.5, 0.4472135954999579, 0.8944271909999159),
    ])
    def test_constant_sigma_constants(self, d, h_const, cos_const):
        report = classify_samples(samples_of(catalog("constant_sigma", {"d": d})))
        assert report.h_slant.constant == pytest.approx(h_const, abs=1e-8)
        assert report.darboux_angular.constant == pytest.approx(cos_const, abs=1e-8)
        assert report.sigma_constancy.is_constant
        assert report.sigma_constancy.mean == pytest.approx(d, abs=1e-12)

    def test_right_angle_never_counts_as_slant(self):
        # helicoid directors sweep the equator: perfect axis, right angle
        report = classify_samples(samples_of(catalog("helicoid")))
        assert not report.q_slant.verdict
        assert report.q_slant.residual < 1e-12
        assert abs(report.q_slant.constant) < 1e-9

    def test_minimum_sample_count(self):
        surface = catalog("helicoid")
        with pytest.raises(ValueError):
            classify(surface, SampleGrid.uniform(surface.param_range, 8))

    def test_detected_h_axis_coefficients_match_theory(self):
        d = 0.5
        samples = samples_of(catalog("constant_sigma", {"d": d}))
        report = classify_samples(samples)
        axis = report.h_slant.axis
        scale = math.sqrt(1.0 + d * d)
        want = h_slant_axis(samples.kappa, d)
        got = (dot(samples.q, axis), dot(samples.h, axis), dot(samples.a, axis))
        for g, w in zip(got, want):
            assert g == pytest.approx(w / scale, abs=1e-8)


class TestAxisDecomposition:
    def test_reconstructs_axis(self):
        samples = samples_of(catalog("latitude_cone", {"beta": math.pi / 6}))
        back = sum(v * dot(v, EZ)[:, None] for v in (samples.q, samples.h, samples.a))
        assert np.all(norm(back - EZ) < 1e-12)

    def test_coefficient_system_on_constant_sigma(self):
        """The projections solve b1' = b2, b2' = -b1 + kappa*b3, b3' = -kappa*b2."""
        d = 0.5
        samples = samples_of(catalog("constant_sigma", {"d": d}), 512)
        report = classify_samples(samples)
        axis = report.h_slant.axis * math.sqrt(1.0 + d * d)  # undo normalization
        b1, b2, b3 = dot(samples.q, axis), dot(samples.h, axis), dot(samples.a, axis)
        s1, kap = samples.s1, samples.kappa
        for i in range(1, len(samples) - 1):
            ds = s1[i + 1] - s1[i - 1]
            b1_dot = (b1[i + 1] - b1[i - 1]) / ds
            b3_dot = (b3[i + 1] - b3[i - 1]) / ds
            # central differences carry O(ds^2 * b''') truncation error,
            # which grows near the domain ends where kappa' is largest
            assert abs(b1_dot - b2[i]) < 5e-4
            assert abs(b1[i] - kap[i] * b3[i]) < 1e-6
            assert abs(b3_dot + kap[i] * b2[i]) < 5e-4


class TestAuditors:
    def test_axis_and_angle_on_constant_sigma(self):
        surface = catalog("constant_sigma", {"d": 0.25})
        grid = SampleGrid.uniform(surface.param_range, 256)
        record = verify_theorem_2_1(surface, grid)
        assert record.applicable and record.passed
        names = [c.name for c in record.checks]
        assert "reconstructed_axis_is_one_world_vector" in names
        assert "central_normal_angle_equals_sigma" in names
        assert all(c.ok for c in record.checks)

    def test_forward_clause_vacuous_when_sigma_vanishes(self):
        surface = catalog("helicoid")
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_theorem_2_1(surface, grid)
        assert record.applicable
        assert any("vacuous" in note or "degenerate" in note for note in record.notes)

    def test_constant_kappa_fixes_darboux(self):
        surface = catalog("latitude_cone", {"beta": math.pi / 4})
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_theorem_3_1(surface, grid)
        assert record.passed
        by_name = {c.name: c for c in record.checks}
        assert by_name["constant_kappa_fixes_darboux_vector"].value < 1e-12

    def test_determinant_identity_everywhere(self, catalog_instances):
        for label, surface in catalog_instances:
            grid = SampleGrid.uniform(surface.param_range, 128)
            record = verify_corollary_3_1(surface, grid)
            assert record.passed, label

    def test_h_slant_angle_audit(self):
        surface = catalog("constant_sigma", {"d": 0.5})
        grid = SampleGrid.uniform(surface.param_range, 256)
        record = verify_theorem_3_2(surface, grid)
        assert record.applicable and record.passed
        by_name = {c.name: c for c in record.checks}
        norm_check = by_name["axis_norm_is_sqrt_one_plus_d_squared"]
        assert norm_check.value <= norm_check.bound

    def test_h_slant_audit_skips_cones(self):
        surface = catalog("latitude_cone", {"beta": math.pi / 6})
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_theorem_3_2(surface, grid)
        assert not record.applicable
        assert record.passed is None

    def test_decomposition_audit_on_cone(self):
        surface = catalog("latitude_cone", {"beta": math.pi / 6})
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_theorems_3_3_3_4(surface, grid, axes=[("polar", EZ)])
        assert record.passed
        samples = samples_of(surface, 128)
        # third coefficient of the polar axis is cos(beta)
        assert dot(samples.a, EZ)[0] == pytest.approx(0.8660254037844387, abs=1e-12)

    def test_decomposition_audit_rejects_varying_kappa(self):
        surface = catalog("constant_sigma", {"d": 0.5})
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_theorems_3_3_3_4(surface, grid)
        assert not record.applicable and record.passed is None
        assert record.checks == []
        assert record.notes[0].startswith(
            "the decomposition audit needs constant conical curvature (relative spread ")

    def test_expansion_residual_is_relative_to_the_darboux_norm(self):
        # kappa = tan(beta) ~ 1e7: the absolute residual is rounding of |W| ~ 1e7
        surface = catalog("latitude_cone", {"beta": 1.5707962267948966})
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_theorems_3_3_3_4(surface, grid)
        assert record.passed
        check = record.checks[0]
        assert check.name == "darboux_direction: expansion_matches_darboux_projection"
        assert check.value < 1e-14

    def test_zero_curvature_equivalence_is_vacuous(self):
        # on the helicoid a3 is constant for any axis while a2 may vary
        surface = catalog("helicoid")
        grid = SampleGrid.uniform(surface.param_range, 128)
        record = verify_theorems_3_3_3_4(surface, grid, axes=[("x_axis", EX)])
        assert record.passed
        assert any("vacuous" in note for note in record.notes)
        names = [c.name for c in record.checks]
        assert not any("constancy_agree" in n for n in names)


def counted(monkeypatch, name: str, modules=(slantsurf.slant,)) -> list:
    """Wrap ``name`` in each module with a counter; returns the list of calls."""
    calls = []
    fn = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


class TestOneClassification:
    """Audits read the report they are given: no second frame pass or classification."""

    @pytest.mark.parametrize("report_tol", [1e-9, 1e-6, 1e-3])
    def test_corollary_rereads_the_strict_verdict(self, report_tol, catalog_instances,
                                                  monkeypatch):
        # the sampled cone's strict Darboux fit residual 9.5e-6 holds at the
        # corollary's own 1e-5 and at 1e-3, but not at 1e-9 or 1e-6
        cone = catalog("latitude_cone", {"beta": 0.5236})
        sampled_cone = load_surface(sampled_spec_document(cone, 64))
        for label, surface in [*catalog_instances, ("sampled_cone", sampled_cone)]:
            grid = SampleGrid.uniform(surface.param_range, 128)
            samples = frame_samples(surface, grid)
            report = classify_samples(samples, report_tol)
            want = verify_corollary_3_1(surface, grid)
            with monkeypatch.context() as patch:
                classifications = counted(patch, "classify_samples")
                frames = counted(patch, "frame_samples")
                got = verify_corollary_3_1(surface, grid, samples=samples, report=report)
            assert (classifications, frames) == ([], []), label
            assert got == want, label

    @pytest.mark.parametrize("audit", [verify_theorem_2_1, verify_theorem_3_1,
                                       verify_theorem_3_2])
    def test_hypotheses_reread_at_the_audits_tol(self, audit, catalog_instances):
        # a report classified at any tol gives the record the audit makes
        # when it classifies at its own
        cone = catalog("latitude_cone", {"beta": 0.5236})
        sampled_cone = load_surface(sampled_spec_document(cone, 64))
        for label, surface in [*catalog_instances, ("sampled_cone", sampled_cone)]:
            grid = SampleGrid.uniform(surface.param_range, 128)
            samples = frame_samples(surface, grid)
            want = audit(surface, grid, samples=samples)
            for report_tol in (1e-9, 1e-3):
                report = classify_samples(samples, report_tol)
                assert audit(surface, grid, samples=samples, report=report) == want, label

    def test_decomposition_rereads_kappa_constancy(self, catalog_instances):
        # kappa's relative spread 3.3e-7 lies between the 1e-9 and 1e-6 reports;
        # only the audit's own tol decides
        flat = catalog("tabulated_kappa", {"s1_knots": [0.0, 1.5, 3.0],
                                           "kappa_values": [0.5, 0.5000005, 0.5]})
        for label, surface in [*catalog_instances, ("nearly_constant_kappa", flat)]:
            grid = SampleGrid.uniform(surface.param_range, 128)
            samples = frame_samples(surface, grid)
            want = verify_theorems_3_3_3_4(surface, grid, axes=[("polar", EZ)])
            for report_tol in (1e-9, 1e-6, 1e-3):
                report = classify_samples(samples, report_tol)
                got = verify_theorems_3_3_3_4(surface, grid, samples=samples,
                                              axes=[("polar", EZ)], report=report)
                assert got == want, (label, report_tol)

    @pytest.mark.parametrize("flags", [[], ["--tol", "1e-9"], ["sampled"]],
                             ids=["default-tol", "tol-1e-9", "sampled"])
    def test_verify_all_samples_and_classifies_once(self, flags, tmp_path, monkeypatch):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"kind": "catalog", "name": "latitude_cone",
                                    "params": {"beta": 0.5236}}))
        if flags == ["sampled"]:
            flags, generated = [], tmp_path / "sampled.json"
            assert main(["generate", "--surface", str(path), "--samples", "256",
                         "--out", str(generated)]) == 0
            path = generated
        modules = (slantsurf.cli, slantsurf.slant)
        frames = counted(monkeypatch, "frame_samples", modules)
        classifications = counted(monkeypatch, "classify_samples", modules)
        out = tmp_path / "report.json"
        assert main(["verify", "--surface", str(path), "--samples", "256", "--theorem", "all",
                     *flags, "--out", str(out)]) == 0
        assert (len(frames), len(classifications)) == (1, 1)
        assert len(json.loads(out.read_text())["audits"]) == 5


def write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


NEARLY_CONSTANT_KAPPA = {"kind": "catalog", "name": "tabulated_kappa",
                         "params": {"s1_knots": [0.0, 1.5, 3.0],
                                    "kappa_values": [0.5, 0.5000005, 0.5]}}


class TestOneBound:
    """Each audit's one tol decides its hypothesis and bounds its checks."""

    SPREAD_NOTE = ("the decomposition audit needs constant conical curvature "
                   "(relative spread 3.333e-07)")

    def test_nearly_constant_kappa_is_not_applicable(self):
        flat = load_surface(NEARLY_CONSTANT_KAPPA)
        record = verify_theorems_3_3_3_4(flat, SampleGrid.uniform(flat.param_range, 128))
        assert (record.applicable, record.passed, record.checks) == (False, None, [])
        assert record.notes == [self.SPREAD_NOTE]

    def test_nearly_constant_kappa_through_verify(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "flat.json", NEARLY_CONSTANT_KAPPA)
        out = tmp_path / "report.json"
        assert main(["verify", "--surface", spec, "--samples", "128",
                     "--out", str(out)]) == 0
        assert "audit 3.3-3.4: not applicable\n" in capsys.readouterr().out
        audit = json.loads(out.read_text())["audits"]["3.3-3.4"]
        assert (audit["applicable"], audit["passed"]) == (False, None)
        assert audit["notes"] == [self.SPREAD_NOTE]

    def test_sampled_cone_checks_the_vanishing_determinant(self, tmp_path):
        cone = write_spec(tmp_path / "cone.json", {"kind": "catalog", "name": "latitude_cone",
                                                   "params": {"beta": 0.5236}})
        sampled, out = tmp_path / "sampled.json", tmp_path / "report.json"
        assert main(["generate", "--surface", cone, "--samples", "64",
                     "--out", str(sampled)]) == 0
        assert main(["verify", "--surface", str(sampled), "--samples", "128",
                     "--theorem", "cor3.1", "--out", str(out)]) == 0
        audit = json.loads(out.read_text())["audits"]["cor3.1"]
        checks = {check["name"]: check for check in audit["checks"]}
        vanishes = checks["determinant_vanishes_on_strict_darboux"]
        assert vanishes["ok"] and vanishes["bound"] == 1e-3
        assert audit["passed"] is True and audit["notes"] == []

    def test_strict_darboux_is_read_at_the_audits_tol(self):
        # the sampled cone's strict Darboux fit residual 9.5e-6 passes the
        # classification's 1e-3 but not audit 3.1's own default 1e-6
        cone = load_surface(sampled_spec_document(
            catalog("latitude_cone", {"beta": 0.5236}), 64))
        grid = SampleGrid.uniform(cone.param_range, 128)
        samples = frame_samples(cone, grid)
        report = classify_samples(samples, 1e-3)
        assert report.darboux_strict.verdict
        record = verify_theorem_3_1(cone, grid, samples=samples, report=report)
        assert [c.name for c in record.checks] == ["constant_kappa_fixes_darboux_vector"]
        assert record.notes == ["implication vacuous: no strict Darboux verdict on this sampling"]

    def test_audits_read_the_reports_angle_tol(self, tmp_path):
        doc = {"kind": "catalog", "name": "constant_sigma", "params": {"d": 0.25}}
        surface = load_surface(doc)
        grid = SampleGrid.uniform(surface.param_range, 128)
        samples = frame_samples(surface, grid)
        record = verify_theorem_2_1(surface, grid, samples=samples,
                                    report=classify_samples(samples, angle_tol=0.3))
        assert record.notes[0].startswith("forward direction skipped")

        out = tmp_path / "report.json"
        assert main(["verify", "--surface", write_spec(tmp_path / "sigma.json", doc),
                     "--samples", "128", "--angle-tol", "0.3", "--theorem", "2.1",
                     "--out", str(out)]) == 0
        written = json.loads(out.read_text())["audits"]["2.1"]
        assert written == {"applicable": record.applicable, "passed": record.passed,
                           "checks": [dataclasses.asdict(c) for c in record.checks],
                           "notes": record.notes}
