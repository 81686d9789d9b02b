"""Reports do not depend on the BLAS build: ``src`` calls no BLAS or LAPACK routine.

numpy hands matrix products and ``np.linalg`` to its BLAS library, and an
OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels by CPU model, so
results computed there can differ in the last bits from one machine to the
next.  A guard walks the package's syntax trees for every spelling that
reaches BLAS; a second test forces two OpenBLAS kernels in child processes
and requires byte-identical reports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slantsurf.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "slantsurf"
BLAS_NAMES = {"linalg", "dot", "matmul", "einsum", "inner", "tensordot", "vdot"}
NUMPY = {"np", "numpy"}


def blas_calls(source: str) -> list[tuple[int, str]]:
    """(line, what) for every matrix product, BLAS-backed numpy name or ``np.linalg`` use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in NUMPY):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            found += [(node.lineno, f"from {node.module} import {alias.name}")
                      for alias in node.names
                      if node.module.startswith("numpy.linalg") or alias.name in BLAS_NAMES]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
    return sorted(found)


@pytest.mark.parametrize("source, line, what", [
    ("x = a @ b", 1, "@"),
    ("x = a\nx @= b", 2, "@"),
    ("w, v = np.linalg.eigh(m)", 1, "np.linalg"),
    ("y = numpy.dot(a, b)", 1, "numpy.dot"),
    ("y = np.einsum('ij,jk', a, b)", 1, "np.einsum"),
    ("from numpy import vdot", 1, "from numpy import vdot"),
    ("from numpy.linalg import norm", 1, "from numpy.linalg import norm"),
    ("import numpy.linalg as la", 1, "import numpy.linalg"),
])
def test_guard_finds_each_spelling(source, line, what):
    assert blas_calls(source) == [(line, what)]


def test_guard_passes_row_algebra():
    assert blas_calls("from .geometry import dot\nd = dot(a, b) * np.add.reduce(a)") == []


def test_package_calls_no_blas():
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in blas_calls(path.read_text())]
    assert found == [], "BLAS or LAPACK reached from src:\n" + "\n".join(found)


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


VERIFIES = [
    ["verify", "--surface", "cone_4096.json", "--samples", "4096", "--out", "cone_report.json"],
    ["verify", "--surface", "sigma.json", "--samples", "4096", "--out", "sigma_report.json"],
]


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: no kernel can be forced")
def test_reports_do_not_depend_on_the_openblas_kernel(tmp_path):
    """``OPENBLAS_CORETYPE`` is set in each child's environment only; with
    ``OPENBLAS_VERBOSE`` 2 OpenBLAS names the core it loaded, which shows the
    two children really ran different kernels."""
    (tmp_path / "cone.json").write_text(json.dumps(
        {"kind": "catalog", "name": "latitude_cone", "params": {"beta": 0.5236}}))
    (tmp_path / "sigma.json").write_text(json.dumps(
        {"kind": "catalog", "name": "constant_sigma", "params": {"d": 0.5}}))
    assert main(["generate", "--surface", str(tmp_path / "cone.json"), "--samples", "4096",
                 "--out", str(tmp_path / "cone_4096.json")]) == 0
    script = ("from slantsurf.cli import main\n"
              f"for argv in {VERIFIES!r}:\n"
              "    assert main(argv) == 0, argv\n")
    reports, cores = {}, {}
    for coretype in ("Haswell", "Prescott"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_CORETYPE": coretype,
               "OPENBLAS_VERBOSE": "2"}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cores[coretype] = [line for line in (proc.stdout + proc.stderr).splitlines()
                           if line.startswith("Core:")]
        reports[coretype] = [(tmp_path / argv[-1]).read_bytes() for argv in VERIFIES]
    assert cores["Haswell"] != cores["Prescott"], cores
    assert reports["Haswell"] == reports["Prescott"]
