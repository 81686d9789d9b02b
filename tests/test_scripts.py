"""Smoke runs of the maintenance scripts in scripts/."""

import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_audit_catalog_prints_every_surface_and_audit(tmp_path):
    lines = run_script("audit_catalog.py", "--samples", "64", cwd=tmp_path)
    assert lines[0].split() == ["surface", "q", "h", "a", "strict", "angular", "kappa",
                                "sigma", "2.1", "3.1", "cor3.1", "3.2", "3.3-3.4"]
    rows = {line.split()[0]: line.split()[8:] for line in lines[1:]}
    assert len(rows) == 9
    assert rows["cone(pi/6)"] == ["pass", "pass", "pass", "n/a", "pass"]
    assert rows["const_sigma(.5)"] == ["pass", "pass", "pass", "pass", "n/a"]


def test_make_demo_surfaces_writes_every_artifact(tmp_path):
    run_script("make_demo_surfaces.py", "--samples", "64", "--out", str(tmp_path),
               cwd=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cone_pi6.json", "constant_sigma.json", "constant_sigma.obj",
        "constant_sigma_report.json", "constant_sigma_resampled.json",
        "constant_sigma_table.csv", "helicoid.json", "helicoid.obj",
        "hyperboloid.json", "tabulated.json",
    ]
    report = json.loads((tmp_path / "constant_sigma_report.json").read_text())
    assert report["meta"]["samples"] == 64
    audits = report["audits"]
    assert list(audits) == ["2.1", "3.1", "cor3.1", "3.2", "3.3-3.4"]
    assert audits["3.2"]["passed"] is True
    assert audits["3.3-3.4"]["applicable"] is False
    assert audits["3.3-3.4"]["notes"][0].startswith(
        "the decomposition audit needs constant conical curvature")


def test_compare_outputs_finds_no_difference_between_equal_trees(tmp_path):
    src = str(ROOT / "src")
    lines = run_script("compare_outputs.py", src, src, cwd=tmp_path)
    assert len(lines) == 2 and lines[0].startswith("0 of "), lines
    count = load_script("compare_outputs").source_lines(src)
    assert lines[1] == f"src/slantsurf lines: parent {count}, change {count}, net +0"


def test_compare_outputs_counts_package_lines(tmp_path):
    package = tmp_path / "slantsurf"
    package.mkdir()
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not code\n")
    assert load_script("compare_outputs").source_lines(str(tmp_path)) == 3


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_differences_by_column(tmp_path):
    compare = load_script("compare_outputs")
    old = {"meta": {"tol": 1e-6},
           "samples": [{"u": 0.0, "h": [1.0, 0.0, 0.0]}, {"u": 1.0, "h": [0.0, 1.0, 0.0]},
                       {"u": 2.0, "h": [0.0, 0.0, 1.0]}],
           "slant": {"h": {"verdict": True, "constant": 0.5}},
           "audits": {"2.1": {"passed": True, "checks": [{"name": "x", "value": 1e-9}]}}}
    new = copy.deepcopy(old)
    new["samples"][1]["h"][0] = 3.5e-18
    new["samples"][2]["h"][1] = -2e-18
    new["slant"]["h"]["constant"] = 0.5000000000000001
    new["audits"]["2.1"]["passed"] = False
    new["audits"]["2.1"]["checks"][0]["value"] = 2e-9
    for name, doc in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert compare.file_differences(tmp_path / "old.json", tmp_path / "new.json") == [
        "samples.h: 2 of 3 rows differ, max |delta| 3.5e-18",
        "slant.h.constant: 0.5 -> 0.5000000000000001, max |delta| 1.11e-16",
        "audits.2.1.passed: True -> False, non-numeric change",
        "audits.2.1.checks[0].value: 1e-09 -> 2e-09, max |delta| 1e-09",
    ]

    spec = {"kind": "sampled", "u": [0.0, 1.0], "q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    moved = copy.deepcopy(spec)
    moved["q"][0][2] = 5e-23
    for name, doc in (("old.json", spec), ("new.json", moved)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert compare.file_differences(tmp_path / "old.json", tmp_path / "new.json") == [
        "q: 1 of 2 rows differ, max |delta| 5e-23",
    ]

    (tmp_path / "old.csv").write_text("u,kappa,sigma\n0,0.5,1\n1,0.25,1\n")
    (tmp_path / "new.csv").write_text("u,kappa,sigma\n0,0.5,1\n1,0.25000000000000006,1\n")
    assert compare.file_differences(tmp_path / "old.csv", tmp_path / "new.csv") == [
        "kappa: 1 of 2 rows differ, max |delta| 5.55e-17",
    ]


# ``run.py`` output as printed, cut to a few rows: a ``--trace 0`` run, and a
# ``--trace 1`` run with an absent metric
RUN_E2E = """\
env {"nproc": 2, "cpu": "Intel(R) Xeon(R) Processor", "python": "3.11.7", "numpy": "2.4.6", \
"scipy": "1.17.1", "commit": null, "src_sha256": "c0a9"}
verify_large       wall_p50_s                             0.306552 s        lower   of 12 invocations
verify_large       peak_rss_mb                             38.3164 MB       lower
verify_large       op_ok_frac                                    1 fraction higher
{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_p50_s": {"value": \
0.30655184100032784, "unit": "s"}, "peak_rss_mb": {"value": 38.31640625, "unit": "MB"}, \
"op_ok_frac": {"value": 1.0, "unit": "fraction"}}}
"""
RUN_TRACED = """\
env {"nproc": 2, "cpu": "Intel(R) Xeon(R) Processor", "python": "3.11.7", "numpy": "2.4.6", \
"scipy": "1.17.1", "commit": null, "src_sha256": "c0a9"}
verify_large       surface_io.bytes_written                2.40907e+06 B        lower
verify_large       geometry.fd_jet_calls                    absent
{"correct": true, "attempted": 12, "failed": 0, "metrics": {"surface_io.bytes_written": \
{"value": 2409067, "unit": "B"}}}
"""


def test_bench_record_parses_run_output():
    record = load_script("bench_record")
    run = record.parse_run(RUN_E2E)
    assert run["env"]["src_sha256"] == "c0a9" and run["env"]["nproc"] == 2
    assert run["rows"]["wall_p50_s"] == {"value": 0.306552, "unit": "s", "better": "lower",
                                         "note": "of 12 invocations"}
    assert run["rows"]["peak_rss_mb"]["note"] == ""
    assert run["rows"]["op_ok_frac"]["better"] == "higher"
    assert run["absent"] == []
    assert run["result"]["metrics"]["peak_rss_mb"]["value"] == 38.31640625
    traced = record.parse_run(RUN_TRACED)
    assert traced["absent"] == ["geometry.fd_jet_calls"]
    assert traced["rows"]["surface_io.bytes_written"]["value"] == 2.40907e6
    for broken in (RUN_E2E.split("\n", 1)[1], RUN_E2E.rsplit("{", 1)[0],
                   RUN_E2E.replace("verify_large       op_ok_frac", "op_ok_frac")):
        with pytest.raises(ValueError):
            record.parse_run(broken)


def test_bench_record_writes_one_file_per_label(tmp_path, monkeypatch):
    record = load_script("bench_record")
    calls = []

    def fake_run(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        return RUN_TRACED if trace else RUN_E2E

    monkeypatch.setattr(record, "run_workload", fake_run)
    monkeypatch.chdir(tmp_path)
    assert record.main(["base", "--seed", "7"]) == 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    assert calls == [(w, 7, benchmark["run_seconds"], t) for w in names for t in (0, 1)]
    doc = json.loads((tmp_path / "BENCH_base.json").read_text())
    assert (doc["label"], doc["seed"], doc["seconds"]) == ("base", 7, benchmark["run_seconds"])
    assert [(r["workload"], r["trace"]) for r in doc["runs"]] == [(w, t) for w in names
                                                                   for t in (0, 1)]
    assert doc["runs"][0]["result"]["metrics"]["peak_rss_mb"]["value"] == 38.31640625
    written = (tmp_path / "BENCH_base.json").read_bytes()
    for argv in (["base"], ["../base"]):
        with pytest.raises(SystemExit) as info:
            record.main(argv)
        assert info.value.code == 2
    assert (tmp_path / "BENCH_base.json").read_bytes() == written
    assert len(calls) == 2 * len(names)


def test_command_peaks_runs_every_command_from_both_trees(tmp_path):
    src = str(ROOT / "src")
    lines = run_script("command_peaks.py", src, src, "--workload", "cli_small", "--runs", "1",
                       cwd=tmp_path)
    assert lines[0].split()[:3] == ["workload", "command", "tree"]
    *rows, paired = [line.split() for line in lines[1:]]
    assert len(rows) == 3 * 9  # parent, change and delta for each cli_small command
    # the paired line: median, quartiles and wins over the 9 commands x 1 run
    median, q1, q3, won, pairs = re.fullmatch(
        r"cli_small paired wall_s change/parent ratio median (\S+) quartiles (\S+) (\S+) "
        r"won (\d+) of (\d+)", " ".join(paired)).groups()
    assert 0.0 < float(q1) <= float(median) <= float(q3)
    assert 0 <= int(won) <= int(pairs) == 9 * 1
    labels = [" ".join(row[1:-9]) for row in rows[0::3]]
    assert labels[:3] == ["classify helicoid --samples 512", "analyze helicoid --samples 512 --csv",
                          "export helicoid --grid 64x8"]
    for parent, change, delta in zip(rows[0::3], rows[1::3], rows[2::3]):
        assert (parent[0], parent[-9], change[-9], delta[-5]) == ("cli_small", "parent", "change",
                                                                  "delta")
        # one run: min, median and max are the same number
        assert parent[-7:-4] == [parent[-6]] * 3 and parent[-3:] == [parent[-2]] * 3
        peak, wall = float(parent[-6]), float(parent[-2])
        assert 0.0 < peak < 1000.0 and 0.0 < wall < 60.0
        assert float(delta[-3]) == pytest.approx(float(change[-6]) - peak, abs=0.011)
