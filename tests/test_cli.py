"""End-to-end command behavior: parsing, exit codes, files, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slantsurf.cli import main, parse_cli, run
from slantsurf.surface_io import CSV_HEADER


def write_spec(path, doc):
    """``doc`` as JSON at ``path``; a string is written as it is."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# a latitude cone tabulated at 32 rows whose base curve jumps between -1e308 and 1e308
_T = [2.0 * math.pi * k / 31 for k in range(32)]
HUGE_F = {"kind": "sampled", "u": _T,
          "f": [[(-1) ** k * 1e308, 0.0, 0.0] for k in range(32)],
          "q": [[math.cos(0.5) * math.cos(t), math.cos(0.5) * math.sin(t), math.sin(0.5)]
                for t in _T]}


@pytest.fixture
def helicoid_spec(tmp_path):
    return write_spec(tmp_path / "helicoid.json", {"kind": "catalog", "name": "helicoid"})


@pytest.fixture
def sigma_spec(tmp_path):
    return write_spec(
        tmp_path / "cs.json",
        {
            "kind": "prescribed_kappa",
            "profile": {"type": "constant_sigma", "d": 0.5},
            "s1_range": [-1.8, 1.8],
            "alpha": 0.0,
            "step": 0.01,
        },
    )


class TestParse:
    def test_analyze_defaults(self):
        cmd = parse_cli(["analyze", "--surface", "s.json"])
        # tol None resolves to 1e-6 (1e-3 for sampled) at run time
        assert vars(cmd) == {"command": "analyze", "surface": "s.json", "samples": 512,
                             "tol": None, "angle_tol": 1e-3, "out": "report.json",
                             "csv": False}

    def test_verify_theorem_choice(self):
        cmd = parse_cli(["verify", "--surface", "s.json", "--theorem", "cor3.1"])
        assert (cmd.command, cmd.surface, cmd.theorem) == ("verify", "s.json", "cor3.1")

    def test_export_grid_and_range(self):
        cmd = parse_cli(["export", "--surface", "s.json", "--grid", "8x4",
                         "--v-range", "-2:3"])
        assert vars(cmd) == {"command": "export", "surface": "s.json", "grid": (8, 4),
                             "v_range": (-2.0, 3.0), "out": "surface.obj"}

    def test_bogus_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            parse_cli(["analyze", "--bogus"])
        assert err.value.code == 1

    def test_unknown_theorem_exits_one(self):
        with pytest.raises(SystemExit) as err:
            parse_cli(["verify", "--surface", "s.json", "--theorem", "9.9"])
        assert err.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as err:
            parse_cli([])
        assert err.value.code == 1

    def test_bad_grid_format_exits_one(self):
        with pytest.raises(SystemExit) as err:
            parse_cli(["export", "--surface", "s.json", "--grid", "8by4"])
        assert err.value.code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--tol", "0"),
        ("--angle-tol", "-1"), ("--angle-tol", "1"), ("--angle-tol", "nan"),
    ])
    def test_bad_tolerance_rejected_before_any_output(self, flag, value,
                                                      helicoid_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as err:
            main(["classify", "--surface", helicoid_spec, "--out", str(out), flag, value])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert not out.exists()

    def test_tolerance_edges_accepted(self):
        cmd = parse_cli(["analyze", "--surface", "s.json", "--tol", "1e-300",
                         "--angle-tol", "0"])
        assert (cmd.tol, cmd.angle_tol) == (1e-300, 0.0)

    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--samples", "15"), ("classify", "--samples", "8"),
        ("verify", "--samples", "0"), ("generate", "--samples", "-3"),
        ("classify", "--samples", "many"),
        ("export", "--grid", "1x1"), ("export", "--grid", "1x8"),
        ("export", "--grid", "64x1"),
        ("export", "--v-range", "1:1"), ("export", "--v-range", "3:-2"),
        ("export", "--v-range", "nan:1"), ("export", "--v-range", "-inf:1"),
    ])
    def test_small_counts_rejected_before_the_spec_is_read(self, command, flag, value,
                                                           tmp_path, capsys):
        # the spec does not exist: reading it would exit 3, not 1
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as err:
            main([command, "--surface", missing, flag, value])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("command", ["analyze", "classify", "verify"])
    def test_csv_onto_a_csv_report_rejected_before_the_spec_is_read(self, command,
                                                                    tmp_path, capsys):
        # the table would go to --out with its suffix swapped for .csv: the report itself
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as err:
            main([command, "--surface", missing, "--out", str(tmp_path / "r.csv"), "--csv"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--csv" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_csv_report_without_csv_flag_accepted(self):
        assert parse_cli(["analyze", "--surface", "s.json", "--out", "r.csv"]).out == "r.csv"
        assert parse_cli(["analyze", "--surface", "s.json", "--out", "r", "--csv"]).csv

    def test_count_edges_accepted(self):
        assert parse_cli(["classify", "--surface", "s.json", "--samples", "16"]).samples == 16
        assert parse_cli(["generate", "--surface", "s.json", "--samples", "16"]).samples == 16
        cmd = parse_cli(["export", "--surface", "s.json", "--grid", "2x2"])
        assert cmd.grid == (2, 2)

    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--samples", "1048577"), ("classify", "--samples", "1048577"),
        ("verify", "--samples", "1048577"), ("generate", "--samples", "1048577"),
        ("export", "--grid", "1025x1024"), ("export", "--grid", "2x524289"),
    ])
    def test_work_limit_rejected_before_the_spec_is_read(self, command, flag, value,
                                                         tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as err:
            main([command, "--surface", missing, flag, value, "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err and "1048576" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_work_limit_edges_accepted(self):
        # parsed only: nothing is sampled or meshed at the limit
        for command in ("analyze", "classify", "verify", "generate"):
            cmd = parse_cli([command, "--surface", "s.json", "--samples", "1048576"])
            assert cmd.samples == 1048576
        cmd = parse_cli(["export", "--surface", "s.json", "--grid", "1024x1024"])
        assert cmd.grid == (1024, 1024)

    def test_step_below_the_work_limit_rejected_at_load(self, tmp_path, capsys):
        # one ulp under span / 2**20; the config check fails before any march
        spec = write_spec(tmp_path / "fine.json", {
            "kind": "prescribed_kappa", "profile": {"type": "constant_sigma", "d": 0.5},
            "s1_range": [-1.8, 1.8], "step": math.nextafter(3.6 / 2**20, 0.0),
        })
        out = tmp_path / "r.json"
        assert main(["analyze", "--surface", spec, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step" in captured.err and "1048576" in captured.err
        assert not out.exists()


class TestAnalyze:
    def test_helicoid_kappa_is_identically_zero(self, helicoid_spec, tmp_path):
        out = tmp_path / "report.json"
        assert run(parse_cli(["analyze", "--surface", helicoid_spec,
                              "--out", str(out)])) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["meta", "samples", "slant", "audits"]
        assert doc["meta"]["samples"] == 512 == len(doc["samples"])
        assert doc["meta"]["tol"] == 1e-6
        assert all(abs(row["kappa"]) < 1e-12 for row in doc["samples"])
        assert doc["audits"] == {}

    def test_csv_alongside(self, helicoid_spec, tmp_path):
        out = tmp_path / "r.json"
        run(parse_cli(["analyze", "--surface", helicoid_spec, "--out", str(out),
                       "--csv"]))
        table = (tmp_path / "r.csv").read_text().splitlines()
        assert table[0] == CSV_HEADER
        assert len(table) == 1 + 512

    def test_sample_count_flag(self, helicoid_spec, tmp_path):
        out = tmp_path / "r.json"
        run(parse_cli(["analyze", "--surface", helicoid_spec, "--samples", "64",
                       "--out", str(out)]))
        assert len(json.loads(out.read_text())["samples"]) == 64

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(parse_cli(["analyze", "--surface", str(bad)])) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("content, reason", [
        (b"[" * 100_000, "nested too deeply"),
        (b'{"kind": "catalog", "name": "helicoid\xff"}', "not UTF-8"),
    ], ids=["deep-nesting", "not-utf8"])
    def test_unreadable_spec_text_names_the_file(self, content, reason, tmp_path, capsys):
        out = tmp_path / "report.json"
        spec = tmp_path / "spec.json"
        spec.write_bytes(content)
        assert main(["classify", "--surface", str(spec), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {spec}: ")
        assert reason in captured.err
        assert sorted(tmp_path.iterdir()) == [spec]

    def test_missing_file_exits_three(self, tmp_path):
        assert run(parse_cli(["analyze", "--surface", str(tmp_path / "no.json")])) == 3

    def test_unknown_catalog_exits_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "x.json", {"kind": "catalog", "name": "moebius"})
        assert run(parse_cli(["analyze", "--surface", spec])) == 1
        assert "moebius" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "catalog", "name": "latitude_cone", "params": {"beta": "x"}}, "beta"),
        ({"kind": "catalog", "name": "hyperboloid", "params": {"r": "x"}}, "r"),
        ({"kind": "catalog", "name": "constant_sigma", "params": {"d": "x"}}, "d"),
        ({"kind": "catalog", "name": "constant_sigma", "params": {"d": 0.5, "step": "x"}},
         "step"),
        ({"kind": "catalog", "name": "tabulated_kappa",
          "params": {"s1_knots": 3, "kappa_values": [0.0, 1.0]}}, "s1_knots"),
        ({"kind": "prescribed_kappa",
          "profile": {"type": "tabulated", "s1_knots": 5, "kappa_values": [0.0, 1.0]}},
         "s1_knots"),
        ({"kind": "catalog", "name": "helicoid", "params": {"zzz": 1}}, "zzz"),
        ({"kind": "catalog", "name": "hyperboloid", "params": {"R": 2}}, "R"),
        ({"kind": "catalog", "name": "constant_sigma",
          "params": {"d": 0.5, "s1_range": [1, 2, 3]}}, "constant_sigma.s1_range"),
        ({"kind": "catalog", "name": "constant_sigma",
          "params": {"d": 0.5, "alpha": math.nan}}, "constant_sigma.alpha"),
        ({"kind": "catalog", "name": "tabulated_kappa",
          "params": {"s1_knots": [0.0, math.nan, 3.0], "kappa_values": [0.0, 1.0, 0.5]}},
         "tabulated_kappa.s1_knots"),
    ], ids=["cone-beta", "hyperboloid-r", "sigma-d", "sigma-step", "tabulated-knots",
            "prescribed-knots", "helicoid-unknown", "hyperboloid-unknown",
            "sigma-range-three", "sigma-alpha-nan", "tabulated-knot-nan"])
    def test_bad_params_rejected_at_spec_load(self, spec, key, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_spec(tmp_path / "spec.json", spec)
        assert main(["analyze", "--surface", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # a numpy warning fails here instead of printing
    @pytest.mark.parametrize("spec, argv, last_line", [
        ({"kind": "prescribed_kappa", "profile": {"type": "constant", "kappa0": 1e300}},
         ["classify"], "error: surface jets are non-finite at u=0.0"),
        (HUGE_F, ["analyze"], "error: surface jets are non-finite at u=0.0"),
        (HUGE_F, ["export"], "error: non-finite value -inf cannot be serialized"),
        ({**HUGE_F, "f": [[0.0, 0.0, 0.0]] * 32, "u": [1e-300 * k for k in range(32)]},
         ["analyze"], "error: surface jets are non-finite at u=0.0"),
        ({"kind": "catalog", "name": "tabulated_kappa",
          "params": {"s1_knots": [0.0, 1.0, 2.0, 3.0], "kappa_values": [0.0, 1e308, -0.4, 0.6]}},
         ["analyze"], "error: surface jets are non-finite at u=0.0"),
        ({"kind": "catalog", "name": "tabulated_kappa",
          "params": {"s1_knots": [-1e308, 0.0, 1e308], "kappa_values": [0.0, 0.8, -0.4]}},
         ["analyze"], "error: step 0.01 too fine: at most 1048576 steps across "
                      "[-1e+308, 1e+308]"),
        ({"kind": "catalog", "name": "helicoid"},
         ["export", "--grid", "2x2", "--v-range", "-1e308:1e308"],
         "slant export: error: argument --v-range: expected a finite MAX - MIN, "
         "got '-1e308:1e308'"),
        # integers beyond float range, where math.isfinite and np.array overflow
        ({"kind": "catalog", "name": "latitude_cone", "params": {"beta": 10 ** 400}},
         ["classify"], f"error: latitude_cone.beta: expected a number, got {10 ** 400}"),
        ({**HUGE_F, "f": [[10 ** 400, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 31},
         ["classify"], f"error: spec.f[0][0]: expected a number, got {10 ** 400}"),
        ({**HUGE_F, "u": [*_T[:5], 10 ** 400, *_T[6:]]},
         ["classify"], f"error: spec.u[5]: expected a number, got {10 ** 400}"),
        # past 500 characters the value is cut; past 4300 digits json cannot read it
        ({"kind": "catalog", "name": "latitude_cone", "params": {"beta": 10 ** 4000}},
         ["classify"], "error: latitude_cone.beta: expected a number, got 1"
                       + "0" * 499 + "... (4001 characters)"),
        ('{"kind": "catalog", "name": "latitude_cone", "params": {"beta": 1'
         + "0" * 5000 + "}}",
         ["classify"], "error: SPEC: an integer has too many digits to read"),
    ], ids=["constant-kappa-1e300", "sampled-f-1e308-analyze", "sampled-f-1e308-export",
            "sampled-u-step-1e-300", "tabulated-kappa-1e308", "tabulated-knots-1e308",
            "export-v-span-overflows", "catalog-beta-int-1e400", "sampled-f-int-1e400",
            "sampled-u-int-1e400", "catalog-beta-4001-digits", "catalog-beta-5001-digits"])
    def test_overflowing_profile_prints_one_error_line(self, spec, argv, last_line,
                                                       tmp_path, capsys):
        path = write_spec(tmp_path / "spec.json", spec)
        last_line = last_line.replace("SPEC", path)
        try:
            code = main([*argv, "--surface", path, "--out", str(tmp_path / "out")])
        except SystemExit as exc:  # a bad flag stops the parser
            code = exc.code
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if last_line.startswith("error: "):
            assert captured.err == last_line + "\n"
        else:  # rejected while the flags are parsed: usage, then the one error line
            assert captured.err.startswith("usage: ")
            assert [line for line in captured.err.splitlines() if "error: " in line] == [
                last_line]
            assert captured.err.endswith(last_line + "\n")
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


class TestClassify:
    def test_constant_sigma_verdicts(self, sigma_spec, tmp_path):
        out = tmp_path / "report.json"
        assert run(parse_cli(["classify", "--surface", sigma_spec,
                              "--out", str(out)])) == 0
        slant = json.loads(out.read_text())["slant"]
        assert slant["q"]["verdict"] is False
        assert slant["h"]["verdict"] is True
        assert slant["a"]["verdict"] is False
        assert slant["darboux_strict"]["verdict"] is False
        assert slant["darboux_angular"]["verdict"] is True
        assert slant["h"]["constant"] == pytest.approx(0.4472135954999579, abs=1e-8)
        assert slant["darboux_angular"]["angle"] == pytest.approx(
            math.acos(0.8944271909999159), abs=1e-8)

    def test_every_verdict_carries_residual(self, helicoid_spec, tmp_path):
        out = tmp_path / "report.json"
        run(parse_cli(["classify", "--surface", helicoid_spec, "--out", str(out)]))
        slant = json.loads(out.read_text())["slant"]
        for key in ("q", "h", "a", "darboux_strict", "darboux_angular"):
            assert "residual" in slant[key] and "spread" in slant[key]

    @pytest.mark.parametrize("out, prefix", [
        ("no_such_dir/r.json", "error: [Errno 2] No such file or directory"),
        (".", "error: [Errno "),  # renaming onto "." fails; the errno depends on the OS
    ], ids=["no_such_dir", "dot"])
    def test_write_error_names_the_out_path(self, out, prefix, helicoid_spec, tmp_path,
                                            monkeypatch, capsys):
        # the private temp file must neither appear in the message nor stay behind
        monkeypatch.chdir(tmp_path)
        code = run(parse_cli(["classify", "--surface", helicoid_spec, "--samples", "64",
                              "--out", out]))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.endswith(f": {out!r}\n"), err
        assert [p.name for p in tmp_path.iterdir()] == ["helicoid.json"]

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_failed_write_prints_nothing_on_stdout(self, command, helicoid_spec, tmp_path,
                                                   capsys):
        # verdict and audit lines appear only once the report is on disk
        out = str(tmp_path / "no_such_dir" / "r.json")
        code = run(parse_cli([command, "--surface", helicoid_spec, "--samples", "64",
                              "--out", out]))
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2]")


class TestCylindricalRejection:
    def test_constant_director_exits_two(self, tmp_path, capsys):
        n = 24
        u = [0.1 * k for k in range(n)]
        spec = write_spec(
            tmp_path / "cyl.json",
            {
                "kind": "sampled",
                "u": u,
                "f": [[t, 0.0, 0.0] for t in u],
                "q": [[0.0, 0.0, 1.0]] * n,
            },
        )
        assert run(parse_cli(["analyze", "--surface", spec,
                              "--out", str(tmp_path / "r.json")])) == 2
        err = capsys.readouterr().err
        assert "cylindrical" in err
        assert "u=" in err  # diagnostic names the offending parameter

    @pytest.mark.parametrize("samples", ["63", "64", "125"])
    def test_director_through_zero_exits_two(self, samples, tmp_path, capsys):
        # q flips between +x and -x, so its interpolant passes through 0 between rows
        path = write_spec(tmp_path / "flip.json", {
            "kind": "sampled", "u": list(range(32)), "f": [[0.0, 0.0, 0.0]] * 32,
            "q": [[(-1.0) ** k, 0.0, 0.0] for k in range(32)],
        })
        code = main(["classify", "--surface", path, "--samples", samples,
                     "--out", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: cylindrical surface: director derivative vanishes at u=0.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["flip.json"]


class TestVerify:
    def test_all_theorems_on_cone(self, tmp_path):
        spec = write_spec(
            tmp_path / "cone.json",
            {"kind": "catalog", "name": "latitude_cone",
             "params": {"beta": math.pi / 4}},
        )
        out = tmp_path / "report.json"
        assert run(parse_cli(["verify", "--surface", spec, "--out", str(out)])) == 0
        audits = json.loads(out.read_text())["audits"]
        assert set(audits) == {"2.1", "3.1", "cor3.1", "3.2", "3.3-3.4"}
        assert audits["2.1"]["passed"] is True
        assert audits["3.1"]["passed"] is True
        assert audits["cor3.1"]["passed"] is True
        assert audits["3.2"]["applicable"] is False  # cone is not h-slant
        assert audits["3.2"]["passed"] is None
        assert audits["3.3-3.4"]["passed"] is True

    def test_single_theorem(self, sigma_spec, tmp_path):
        out = tmp_path / "report.json"
        assert run(parse_cli(["verify", "--surface", sigma_spec,
                              "--theorem", "3.2", "--out", str(out)])) == 0
        audits = json.loads(out.read_text())["audits"]
        assert list(audits) == ["3.2"]
        assert audits["3.2"]["passed"] is True

    @pytest.mark.parametrize("sampled", [False, True])
    def test_all_audits_share_one_classification(self, sampled, sigma_spec, tmp_path,
                                                 monkeypatch):
        spec = sigma_spec
        if sampled:
            spec = str(tmp_path / "sampled.json")
            assert run(parse_cli(["generate", "--surface", sigma_spec, "--out", spec])) == 0
        import slantsurf.cli
        import slantsurf.slant

        calls = []
        classify_samples = slantsurf.slant.classify_samples

        def counting(*args, **kwargs):
            calls.append(args)
            return classify_samples(*args, **kwargs)

        monkeypatch.setattr(slantsurf.cli, "classify_samples", counting)
        monkeypatch.setattr(slantsurf.slant, "classify_samples", counting)
        out = tmp_path / "report.json"
        assert run(parse_cli(["verify", "--surface", spec, "--theorem", "all",
                              "--out", str(out)])) == 0
        assert len(calls) == 1
        assert set(json.loads(out.read_text())["audits"]) == {
            "2.1", "3.1", "cor3.1", "3.2", "3.3-3.4"}

    def test_decomposition_not_applicable_still_exits_zero(self, sigma_spec, tmp_path):
        out = tmp_path / "report.json"
        assert run(parse_cli(["verify", "--surface", sigma_spec,
                              "--theorem", "3.3-3.4", "--out", str(out)])) == 0
        block = json.loads(out.read_text())["audits"]["3.3-3.4"]
        assert block["applicable"] is False
        assert block["passed"] is None
        assert block["notes"]


class TestGenerate:
    def test_round_trip_reproduces_invariants(self, sigma_spec, tmp_path):
        sampled = tmp_path / "sampled.json"
        assert run(parse_cli(["generate", "--surface", sigma_spec,
                              "--out", str(sampled)])) == 0
        doc = json.loads(sampled.read_text())
        assert doc["kind"] == "sampled"
        assert len(doc["u"]) == 512

        report_path = tmp_path / "report.json"
        assert run(parse_cli(["analyze", "--surface", str(sampled),
                              "--out", str(report_path)])) == 0
        report = json.loads(report_path.read_text())
        assert report["meta"]["tol"] == 1e-3  # sampled specs loosen automatically
        slant = report["slant"]
        assert slant["h"]["verdict"] is True
        assert slant["darboux_strict"]["verdict"] is False
        assert slant["darboux_angular"]["verdict"] is True
        assert slant["h"]["constant"] == pytest.approx(0.4472135954999579, abs=1e-3)
        # curvature values survive the resampling away from the ends
        for row in report["samples"]:
            s1 = row["s1"] - 1.8  # sampled parameter starts at zero
            if abs(s1) <= 1.5:
                want = 0.5 * s1 / math.sqrt(1.0 - (0.5 * s1) ** 2)
                assert row["kappa"] == pytest.approx(want, abs=1e-3)

    def test_generate_rejects_non_object_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "list.json", [1, 2])
        out = tmp_path / "out.json"
        assert main(["generate", "--surface", spec, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spec: expected a JSON object\n"
        assert not out.exists()

    def test_generate_rejects_sampled_input(self, sigma_spec, tmp_path, capsys):
        sampled = tmp_path / "sampled.json"
        run(parse_cli(["generate", "--surface", sigma_spec, "--out", str(sampled)]))
        again = tmp_path / "again.json"
        assert run(parse_cli(["generate", "--surface", str(sampled),
                              "--out", str(again)])) == 1
        assert "catalog or prescribed_kappa" in capsys.readouterr().err


class TestExport:
    def test_minimal_grid(self, helicoid_spec, tmp_path):
        out = tmp_path / "m.obj"
        assert run(parse_cli(["export", "--surface", helicoid_spec,
                              "--grid", "2x2", "--v-range", "0:1",
                              "--out", str(out)])) == 0
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        assert sum(1 for l in lines if l.startswith("f ")) == 2

    def test_helicoid_contains_unit_x_vertex(self, helicoid_spec, tmp_path):
        # u = 0, v = 1 lands at f + q = (1, 0, 0)
        out = tmp_path / "h.obj"
        run(parse_cli(["export", "--surface", helicoid_spec, "--grid", "4x3",
                       "--out", str(out)]))
        assert "v 1 0 0" in out.read_text().splitlines()


class TestDeterminism:
    def test_byte_identical_outputs(self, sigma_spec, helicoid_spec, tmp_path):
        pairs = []
        for tag in ("one", "two"):
            report = tmp_path / f"r_{tag}.json"
            run(parse_cli(["analyze", "--surface", sigma_spec, "--out", str(report),
                           "--csv"]))
            obj = tmp_path / f"m_{tag}.obj"
            run(parse_cli(["export", "--surface", helicoid_spec, "--out", str(obj)]))
            pairs.append((report.read_bytes(),
                          report.with_suffix(".csv").read_bytes(),
                          obj.read_bytes()))
        assert pairs[0] == pairs[1]


def test_main_returns_exit_code(helicoid_spec, tmp_path):
    assert main(["analyze", "--surface", helicoid_spec,
                 "--out", str(tmp_path / "r.json")]) == 0


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(cwd, *args):
    """One fresh interpreter that imports ``slantsurf`` from this checkout."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )


def _run_fresh(cwd, *argvs):
    """Run slant commands in one fresh interpreter.

    Returns the printed lines and whether scipy had been imported by the end.
    ``main(argv)`` is the library path, so the child also asserts that the
    collector was never frozen.
    """
    script = (
        "import gc, sys\n"
        "from slantsurf.cli import main\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert gc.get_freeze_count() == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = _python(cwd, "-c", script)
    assert proc.returncode == 0, proc.stderr
    *lines, loaded = proc.stdout.splitlines()
    return lines, loaded == "True"


class TestStartup:
    """scipy costs most of a process's start-up; no spec kind loads it."""

    def test_closed_forms_never_load_scipy(self, helicoid_spec, sigma_spec, tmp_path):
        lines, loaded = _run_fresh(
            tmp_path,
            ["analyze", "--surface", helicoid_spec, "--out", "h_report.json"],
            ["analyze", "--surface", sigma_spec, "--out", "cs_report.json"],
            ["classify", "--surface", helicoid_spec, "--out", "h_report.json"],
            ["classify", "--surface", sigma_spec, "--out", "cs_report.json"],
            ["generate", "--surface", sigma_spec, "--out", "sampled.json"],
        )
        assert not loaded
        verdicts = [line for line in lines if line.startswith("q_slant")]
        assert verdicts == [
            "q_slant=False h_slant=False a_slant=True "
            "darboux_strict=True darboux_angular=True",
            "q_slant=False h_slant=True a_slant=False "
            "darboux_strict=False darboux_angular=True",
        ]

    def test_sampled_spec_never_loads_scipy(self, sigma_spec, tmp_path):
        assert run(parse_cli(["generate", "--surface", sigma_spec,
                              "--out", str(tmp_path / "sampled.json")])) == 0
        lines, loaded = _run_fresh(
            tmp_path, ["classify", "--surface", "sampled.json", "--out", "r.json"])
        assert not loaded
        assert lines[0] == ("q_slant=False h_slant=True a_slant=False "
                            "darboux_strict=False darboux_angular=True")

    def test_tabulated_profile_never_loads_scipy(self, tmp_path):
        spec = write_spec(tmp_path / "tab.json", {
            "kind": "catalog", "name": "tabulated_kappa",
            "params": {"s1_knots": [0.0, 1.5, 3.0], "kappa_values": [0.0, 1.5, 3.0]},
        })
        lines, loaded = _run_fresh(
            tmp_path, ["classify", "--surface", spec, "--out", "r.json"])
        assert not loaded
        assert lines[0] == ("q_slant=False h_slant=False a_slant=False "
                            "darboux_strict=False darboux_angular=False")


@pytest.mark.parametrize("spec, error", [
    ({"kind": "prescribed_kappa", "profile": {"type": "constant", "kappa0": 1e300}},
     "error: surface jets are non-finite at u=0.0"),
    ({"kind": "catalog", "name": "tabulated_kappa",
      "params": {"s1_knots": [0.0, 1.0, 2.0, 3.0], "kappa_values": [0.0, 1e308, -0.4, 0.6]}},
     "error: surface jets are non-finite at u=0.0"),
    # one RK4 step leaves a vector of norm exactly 0 for Gram-Schmidt: 0/0 is nan there
    ({"kind": "prescribed_kappa", "profile": {"type": "constant", "kappa0": 5e8},
      "s1_range": [0.0, 2.0]},
     "error: surface jets are non-finite at u=0.043052837573385516"),
], ids=["constant-kappa-1e300", "tabulated-kappa-1e308", "constant-kappa-zero-norm"])
def test_non_finite_march_exits_1_without_a_traceback(spec, error, tmp_path):
    write_spec(tmp_path / "spec.json", spec)
    proc = _python(tmp_path, "-m", "slantsurf.cli", "classify", "--surface", "spec.json",
                   "--out", "r.json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


class TestProgramPath:
    """``main()`` without argv is the ``slant`` program, and it alone freezes the
    collector; the freeze runs in child processes, so it never pins this
    suite's garbage."""

    def test_program_freezes_and_library_and_import_do_not(self, helicoid_spec, tmp_path):
        program = _python(tmp_path, "-c", (
            "import gc, runpy, sys\n"
            f"sys.argv = ['slant', 'classify', '--surface', {helicoid_spec!r}, '--out', 'r.json']\n"
            "try:\n"
            "    runpy.run_module('slantsurf.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0)\n"))
        assert program.stdout.splitlines()[-1] == "0 True", program.stderr
        imported = _python(tmp_path, "-c",
                           "import gc, slantsurf.cli; print(gc.get_freeze_count())")
        assert imported.stdout == "0\n", imported.stderr
        # the child asserts a freeze count of 0 after main(argv)
        lines, _ = _run_fresh(
            tmp_path, ["classify", "--surface", helicoid_spec, "--out", "r.json"])
        assert lines[-1] == "wrote r.json"

    @pytest.mark.parametrize("argv, code", [
        (["classify", "--surface", "helicoid.json", "--out", "r.json", "--csv"], 0),
        (["classify", "--surface", "helicoid.json", "--samples", "1"], 1),
        (["classify", "--surface", "bad.json", "--out", "r.json"], 1),
        (["analyze", "--surface", "cyl.json", "--out", "r.json"], 2),
        (["classify", "--surface", "helicoid.json", "--out", "no_such_dir/r.json"], 3),
    ], ids=["classify", "usage", "bad-spec", "cylindrical", "missing-dir"])
    def test_program_prints_and_writes_what_main_argv_does(self, argv, code, tmp_path):
        specs = {"helicoid.json": {"kind": "catalog", "name": "helicoid"},
                 "bad.json": {"kind": "catalog", "name": "no_such_surface"},
                 "cyl.json": {"kind": "sampled", "u": [0.1 * k for k in range(24)],
                              "f": [[0.1 * k, 0.0, 0.0] for k in range(24)],
                              "q": [[0.0, 0.0, 1.0]] * 24}}
        results = []
        for name, args in (("program", ["-m", "slantsurf.cli"]),
                           ("library", ["-c", "import sys\nfrom slantsurf.cli import main\n"
                                              "raise SystemExit(main(sys.argv[1:]))"])):
            cwd = tmp_path / name
            cwd.mkdir()
            for spec, doc in specs.items():
                write_spec(cwd / spec, doc)
            proc = _python(cwd, *args, *argv)
            written = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())
                       if p.name not in specs}
            results.append((proc.returncode, proc.stdout, proc.stderr, written))
        assert results[0][0] == code, results[0][2]
        assert results[0] == results[1]
