"""Compare what two source trees of slantsurf do on a fixed list of CLI runs.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``slantsurf`` package (a checkout's
``src``).  Each tree runs every invocation below in one child interpreter
through ``slantsurf.cli.main``, in its own temporary directory with relative
paths, so the ``wrote ...`` lines of the two trees compare equal.  Prints
every invocation whose exit code, stdout, stderr or written files differ,
and exits 1 if any do, 0 if none do.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SPECS = {
    "helicoid.json": {"kind": "catalog", "name": "helicoid"},
    "cone.json": {"kind": "catalog", "name": "latitude_cone", "params": {"beta": 0.5236}},
    "hyperboloid.json": {"kind": "catalog", "name": "hyperboloid",
                         "params": {"r": 1.0, "pitch": 0.5}},
    "plane.json": {"kind": "catalog", "name": "radial_plane"},
    "sigma.json": {"kind": "catalog", "name": "constant_sigma", "params": {"d": 0.5}},
    "tab.json": {"kind": "catalog", "name": "tabulated_kappa",
                 "params": {"s1_knots": [0.0, 1.0, 2.0, 3.0],
                            "kappa_values": [0.0, 0.8, -0.4, 0.6]}},
    "pk_sigma.json": {"kind": "prescribed_kappa",
                      "profile": {"type": "constant_sigma", "d": 0.4},
                      "s1_range": [-1.8, 1.8], "alpha": 0.3, "step": 0.01},
    "pk_const.json": {"kind": "prescribed_kappa",
                      "profile": {"type": "constant", "kappa0": 0.7},
                      "s1_range": [0.0, 2.0], "step": 0.013},
    "pk_tab.json": {"kind": "prescribed_kappa",
                    "profile": {"type": "tabulated", "s1_knots": [0.0, 1.0, 2.0, 3.0],
                                "kappa_values": [0.0, 0.8, -0.4, 0.6]}},
    # the director never moves: exit 2
    "cyl.json": {"kind": "sampled", "u": [0.1 * k for k in range(24)],
                 "f": [[0.1 * k, 0.0, 0.0] for k in range(24)],
                 "q": [[0.0, 0.0, 1.0]] * 24},
    "bad_beta.json": {"kind": "catalog", "name": "latitude_cone", "params": {"beta": "x"}},
    "unknown_param.json": {"kind": "catalog", "name": "hyperboloid", "params": {"R": 2}},
    "moebius.json": {"kind": "catalog", "name": "moebius"},
    "range3.json": {"kind": "catalog", "name": "constant_sigma",
                    "params": {"d": 0.5, "s1_range": [1, 2, 3]}},
    "alpha_nan.json": {"kind": "catalog", "name": "constant_sigma",
                       "params": {"d": 0.5, "alpha": math.nan}},
    "knot_nan.json": {"kind": "catalog", "name": "tabulated_kappa",
                      "params": {"s1_knots": [0.0, math.nan, 3.0],
                                 "kappa_values": [0.0, 1.0, 0.5]}},
    "no_d.json": {"kind": "catalog", "name": "constant_sigma", "params": {"alpha": 0.2}},
    # kappa's relative spread 3.3e-7: above 3.3-3.4's own 1e-9 and --tol 1e-7
    "tab_flat.json": {"kind": "catalog", "name": "tabulated_kappa",
                      "params": {"s1_knots": [0.0, 1.5, 3.0],
                                 "kappa_values": [0.5, 0.5000005, 0.5]}},
    "tab_span.json": {"kind": "catalog", "name": "tabulated_kappa",
                      "params": {"s1_knots": [0.0, 1.0, 2.0, 3.0],
                                 "kappa_values": [0.0, 0.8, -0.4, 0.6],
                                 "s1_range": [0.0, 3.0]}},
    "tab_range.json": {"kind": "catalog", "name": "tabulated_kappa",
                       "params": {"s1_knots": [0.0, 1.0, 2.0, 3.0],
                                  "kappa_values": [0.0, 0.8, -0.4, 0.6],
                                  "s1_range": [0.0, 2.0]}},
    "pk_range3.json": {"kind": "prescribed_kappa",
                       "profile": {"type": "constant_sigma", "d": 0.4},
                       "s1_range": [-1.0, 0.0, 1.0]},
    "pk_alpha_nan.json": {"kind": "prescribed_kappa",
                          "profile": {"type": "constant_sigma", "d": 0.4}, "alpha": math.nan},
    "pk_profile_list.json": {"kind": "prescribed_kappa", "profile": ["constant_sigma", 0.4]},
    # overflows the march: one error line, exit 1
    "pk_huge.json": {"kind": "prescribed_kappa",
                     "profile": {"type": "constant", "kappa0": 1e300}},
    "broken.json": "{\"kind\": ",  # written as is: not valid JSON
}

N = ["--samples", "128"]
INVOCATIONS = [
    ["analyze", "--surface", "helicoid.json", *N, "--out", "a_helicoid.json", "--csv"],
    ["analyze", "--surface", "sigma.json", *N, "--out", "a_sigma.json", "--csv"],
    *(["classify", "--surface", spec, *N, "--out", f"c_{spec}"]
      for spec in ("helicoid.json", "cone.json", "hyperboloid.json", "plane.json",
                   "sigma.json", "tab.json", "tab_span.json", "pk_sigma.json",
                   "pk_const.json", "pk_tab.json")),
    *(["verify", "--surface", "sigma.json", *N, "--theorem", tid,
       "--out", f"v_sigma_{tid}.json"]
      for tid in ("2.1", "3.1", "cor3.1", "3.2", "3.3-3.4", "all")),
    ["verify", "--surface", "cone.json", *N, "--out", "v_cone.json"],
    ["verify", "--surface", "pk_tab.json", *N, "--out", "v_pk_tab.json", "--csv"],
    ["verify", "--surface", "pk_const.json", *N, "--out", "v_pk_const.json"],
    ["verify", "--surface", "sigma.json", *N, "--tol", "1e-4", "--out", "v_tol.json"],
    # --tol replaces each audit's own bound, which decides its hypothesis too
    *(["verify", "--surface", spec, *N, "--tol", "1e-7", "--out", f"v_tol_{spec}"]
      for spec in ("cone.json", "tab_flat.json")),
    ["verify", "--surface", "tab_flat.json", *N, "--out", "v_tab_flat.json"],
    ["verify", "--surface", "cone.json", *N, "--angle-tol", "0.01",
     "--out", "v_angle.json"],
    ["export", "--surface", "helicoid.json"],
    ["export", "--surface", "sigma.json", "--grid", "8x4", "--v-range", "-2:3",
     "--out", "e_sigma.obj"],
    ["generate", "--surface", "sigma.json", *N, "--out", "g_sigma.json"],
    ["generate", "--surface", "pk_tab.json", *N, "--out", "g_pk_tab.json"],
    ["verify", "--surface", "g_sigma.json", *N, "--out", "v_g_sigma.json"],
    # strict Darboux at the sampled tol 1e-3 (fit residual 9.5e-6), which cor3.1 reads
    ["generate", "--surface", "cone.json", "--samples", "64", "--out", "g_cone.json"],
    ["verify", "--surface", "g_cone.json", *N, "--out", "v_g_cone.json"],
    ["verify", "--surface", "g_pk_tab.json", *N, "--tol", "1e-2", "--out", "v_g_tab.json"],
    ["verify", "--surface", "sigma.json", "--samples", "4096", "--out", "v_4096.json"],
    ["verify", "--surface", "tab.json", "--samples", "4096", "--csv", "--out", "v_tab_4096.json"],
    ["generate", "--surface", "sigma.json", "--samples", "4096", "--out", "g_sigma_4096.json"],
    # exit 1: usage
    [],
    ["analyze", "--surface", "sigma.json", "--bogus"],
    ["analyze", "--surface", "sigma.json", "--samples", "8"],
    ["verify", "--surface", "sigma.json", "--theorem", "9.9"],
    ["classify", "--surface", "sigma.json", "--tol", "nan"],
    ["export", "--surface", "helicoid.json", "--grid", "1x1"],
    ["export", "--surface", "helicoid.json", "--v-range", "abc"],
    ["analyze", "--surface", "helicoid.json", *N, "--out", "r.csv", "--csv"],
    # exit 1: spec and params
    ["analyze", "--surface", "bad_beta.json", *N],
    ["analyze", "--surface", "unknown_param.json", *N],
    ["analyze", "--surface", "moebius.json", *N],
    ["analyze", "--surface", "broken.json", *N],
    ["generate", "--surface", "g_sigma.json", *N, "--out", "g_again.json"],
    ["analyze", "--surface", "range3.json", *N, "--out", "x_range3.json"],
    ["analyze", "--surface", "alpha_nan.json", *N, "--out", "x_alpha_nan.json"],
    ["analyze", "--surface", "knot_nan.json", *N, "--out", "x_knot_nan.json"],
    *(["analyze", "--surface", spec, *N, "--out", f"x_{spec}"]
      for spec in ("no_d.json", "tab_range.json", "pk_range3.json", "pk_alpha_nan.json",
                   "pk_profile_list.json")),
    ["classify", "--surface", "pk_huge.json", *N, "--out", "x_pk_huge.json"],
    *(["export", "--surface", "missing.json", "--v-range", value]
      for value in ("1:1", "3:-2", "nan:1", "-inf:1")),
    # exit 2: cylindrical surface
    ["analyze", "--surface", "cyl.json", "--samples", "24", "--out", "x_cyl.json"],
    # exit 3: I/O
    ["analyze", "--surface", "missing.json", *N],
    ["classify", "--surface", ".", *N],
    ["classify", "--surface", "helicoid.json", *N, "--out", "no_such_dir/r.json"],
    ["verify", "--surface", "sigma.json", *N, "--out", "no_such_dir/r.json"],
]

# runs in the child: each invocation through slantsurf.cli.main, then the
# sha256 of every file it created or changed
CHILD = r"""
import contextlib, hashlib, io, json, os, sys
from slantsurf.cli import main

def snapshot():
    files = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[path] = hashlib.sha256(fh.read()).hexdigest()
    return files

results = []
for argv in json.loads(sys.argv[1]):
    before = snapshot()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    after = snapshot()
    files = {p: h for p, h in sorted(after.items()) if before.get(p) != h}
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "files": files})
json.dump(results, sys.stdout)
"""


def start_tree(src: str, tmp: str) -> subprocess.Popen:
    for name, doc in SPECS.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        Path(tmp, name).write_text(text, encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, json.dumps(INVOCATIONS)], cwd=tmp,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(src, "slantsurf", "cli.py").is_file() for src in argv):
        print("usage: compare_outputs.py PARENT_SRC CHANGE_SRC "
              "(each a directory holding slantsurf/)", file=sys.stderr)
        return 2
    # the two trees run at the same time, each in its own directory
    with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
        procs = [start_tree(src, tmp) for src, tmp in zip(argv, (tmp_a, tmp_b))]
        outputs = [proc.communicate(timeout=600) for proc in procs]
    for src, proc, (_, stderr) in zip(argv, procs, outputs):
        if proc.returncode != 0:
            raise SystemExit(f"child under {src} failed:\n{stderr}")
    parent, change = (json.loads(stdout) for stdout, _ in outputs)
    differ = 0
    for args, old, new in zip(INVOCATIONS, parent, change):
        fields = [key for key in ("code", "stdout", "stderr", "files") if old[key] != new[key]]
        if fields:
            differ += 1
            print(f"DIFFER slant {' '.join(args)}: {', '.join(fields)}")
            for key in fields:
                print(f"  parent {key}: {old[key]!r}\n  change {key}: {new[key]!r}")
    print(f"{differ} of {len(INVOCATIONS)} invocations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
