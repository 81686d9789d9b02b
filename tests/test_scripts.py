"""Smoke runs of the maintenance scripts in scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert len(lines) == 1 and lines[0].startswith("0 of "), lines
