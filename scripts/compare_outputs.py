"""Compare what two source trees of slantsurf do on a fixed list of CLI runs.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``slantsurf`` package (a checkout's
``src``).  Each tree runs every invocation below in one child interpreter
through ``slantsurf.cli.main``, in its own temporary directory with relative
paths, so the ``wrote ...`` lines of the two trees compare equal.  Prints
every invocation whose exit code, stdout, stderr or written files differ,
and exits 1 if any do, 0 if none do.

A written file that differs is described as the last invocation left it.
In a JSON document every top-level list is a table (a report's ``samples``
rows, a sampled spec's ``u``, ``f`` and ``q``), and each of its columns is
summarized by the number of rows that differ and the largest |delta|; every
other differing leaf is printed by its path.  A CSV file is summarized by
column the same way, and any other file by its differing lines.  The last line
gives each tree's ``slantsurf`` line count and the net change.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the director of a latitude cone (beta 0.5) at 64 values of t
_T = [2.0 * math.pi * k / 63 for k in range(64)]
_Q = [[math.cos(0.5) * math.cos(t), math.cos(0.5) * math.sin(t), math.sin(0.5)] for t in _T]

SPECS = {
    "helicoid.json": {"kind": "catalog", "name": "helicoid"},
    "cone.json": {"kind": "catalog", "name": "latitude_cone", "params": {"beta": 0.5236}},
    "steep_cone.json": {"kind": "catalog", "name": "latitude_cone", "params": {"beta": 1.5}},
    # kappa = tan(beta) ~ 1e7, |W| too
    "polar_cone.json": {"kind": "catalog", "name": "latitude_cone",
                        "params": {"beta": 1.5707962267948966}},
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
    # tabulated at u = t + 0.3 sin t: |dq/du| varies along u
    "cone_uneven.json": {"kind": "sampled", "u": [t + 0.3 * math.sin(t) for t in _T],
                         "f": [[0.0, 0.0, 0.0]] * 64, "q": _Q},
    # the director never moves: exit 2
    "cyl.json": {"kind": "sampled", "u": [0.1 * k for k in range(24)],
                 "f": [[0.1 * k, 0.0, 0.0] for k in range(24)],
                 "q": [[0.0, 0.0, 1.0]] * 24},
    # q flips between +x and -x, so its interpolant passes through zero: exit 2
    "flip.json": {"kind": "sampled", "u": list(range(32)), "f": [[0.0, 0.0, 0.0]] * 32,
                  "q": [[(-1.0) ** k, 0.0, 0.0] for k in range(32)]},
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
    # one RK4 step leaves Gram-Schmidt a vector of norm exactly 0: exit 1
    "pk_zero_norm.json": {"kind": "prescribed_kappa",
                          "profile": {"type": "constant", "kappa0": 5e8}, "s1_range": [0.0, 2.0]},
    # inputs whose jets or spline overflow: one error line, exit 1, no numpy warnings
    "f_huge.json": {"kind": "sampled", "u": _T,
                    "f": [[(-1) ** k * 1e308, 0.0, 0.0] for k in range(64)], "q": _Q},
    "u_tiny.json": {"kind": "sampled", "u": [1e-300 * k for k in range(64)],
                    "f": [[0.0, 0.0, 0.0]] * 64, "q": _Q},
    "knot_huge.json": {"kind": "catalog", "name": "tabulated_kappa",
                       "params": {"s1_knots": [0.0, 1.0, 2.0, 3.0],
                                  "kappa_values": [0.0, 1e308, -0.4, 0.6]}},
    "knots_wide.json": {"kind": "catalog", "name": "tabulated_kappa",
                        "params": {"s1_knots": [-1e308, 0.0, 1e308],
                                   "kappa_values": [0.0, 0.8, -0.4]}},
    # an integer beyond float range where a number is wanted: one error line, exit 1
    "beta_overflow.json": {"kind": "catalog", "name": "latitude_cone",
                           "params": {"beta": 10 ** 400}},
    "f_overflow.json": {"kind": "sampled", "u": _T,
                        "f": [[10 ** 400, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 63, "q": _Q},
    # an integer of 4001 digits, echoed cut; one of 5001, past json's digit limit
    "beta_digits.json": {"kind": "catalog", "name": "latitude_cone",
                         "params": {"beta": 10 ** 4000}},
    "beta_too_long.json": '{"kind": "catalog", "name": "latitude_cone", "params": {"beta": 1'
                          + "0" * 5000 + "}}",
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
    # W is fixed up to rounding, which fine s1 steps must not turn into motion
    ["classify", "--surface", "steep_cone.json", "--samples", "4096",
     "--out", "c_steep_cone.json"],
    *(["verify", "--surface", "sigma.json", *N, "--theorem", tid,
       "--out", f"v_sigma_{tid}.json"]
      for tid in ("2.1", "3.1", "cor3.1", "3.2", "3.3-3.4", "all")),
    ["verify", "--surface", "cone.json", *N, "--out", "v_cone.json"],
    ["verify", "--surface", "pk_tab.json", *N, "--out", "v_pk_tab.json", "--csv"],
    ["verify", "--surface", "pk_const.json", *N, "--out", "v_pk_const.json"],
    ["verify", "--surface", "cone_uneven.json", *N, "--out", "v_cone_uneven.json"],
    ["verify", "--surface", "polar_cone.json", *N, "--theorem", "3.3-3.4",
     "--out", "v_polar_cone.json"],
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
    ["export", "--surface", "cone_uneven.json", "--out", "e_cone_uneven.obj"],
    ["export", "--surface", "pk_tab.json", "--grid", "5x3", "--v-range", "-0.5:2",
     "--out", "e_pk_tab.obj"],
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
    # the benchmark's peak case: 16 row blocks of sampled jets, then both text renderers
    ["verify", "--surface", "g_sigma_4096.json", "--samples", "4096", "--csv",
     "--out", "v_g_sigma_4096.json"],
    # spec tables on each side of a row block's edge, and the tabulated march at 4096 rows
    *(["generate", "--surface", "sigma.json", "--samples", str(rows),
       "--out", f"g_sigma_{rows}.json"] for rows in (255, 256, 257)),
    # row counts that leave a short last row block: report, CSV and spec tables
    ["analyze", "--surface", "hyperboloid.json", "--samples", "100",
     "--out", "a_hyperboloid_100.json", "--csv"],
    ["generate", "--surface", "sigma.json", "--samples", "33", "--out", "g_sigma_33.json"],
    ["verify", "--surface", "g_sigma_33.json", "--samples", "100", "--csv",
     "--out", "v_g_sigma_33.json"],
    ["generate", "--surface", "pk_tab.json", "--samples", "4096", "--out", "g_pk_tab_4096.json"],
    ["verify", "--surface", "g_pk_tab_4096.json", "--samples", "4096",
     "--out", "v_g_pk_tab_4096.json"],
    # exit 1: usage
    [],
    ["analyze", "--surface", "sigma.json", "--bogus"],
    ["analyze", "--surface", "sigma.json", "--samples", "8"],
    ["verify", "--surface", "sigma.json", "--theorem", "9.9"],
    ["classify", "--surface", "sigma.json", "--tol", "nan"],
    ["export", "--surface", "helicoid.json", "--grid", "1x1"],
    ["export", "--surface", "helicoid.json", "--v-range", "abc"],
    ["export", "--surface", "helicoid.json", "--grid", "2x2", "--v-range", "-1e308:1e308"],
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
    ["classify", "--surface", "pk_zero_norm.json", *N, "--out", "x_pk_zero_norm.json"],
    *(["analyze", "--surface", spec, *N, "--out", f"x_{spec}"]
      for spec in ("f_huge.json", "u_tiny.json", "knot_huge.json", "knots_wide.json")),
    ["export", "--surface", "f_huge.json", "--out", "x_f_huge.obj"],
    *(["classify", "--surface", spec, *N, "--out", f"x_{spec}"]
      for spec in ("beta_overflow.json", "f_overflow.json", "beta_digits.json",
                   "beta_too_long.json")),
    # the v step underflows, so neighbouring rows coincide
    ["export", "--surface", "helicoid.json", "--grid", "4x6", "--v-range", "0:1e-323",
     "--out", "x_collapsed.obj"],
    *(["export", "--surface", "missing.json", "--v-range", value]
      for value in ("1:1", "3:-2", "nan:1", "-inf:1")),
    # exit 2: cylindrical surface
    ["analyze", "--surface", "cyl.json", "--samples", "24", "--out", "x_cyl.json"],
    ["classify", "--surface", "flip.json", "--samples", "63", "--out", "x_flip.json"],
    # exit 3: I/O
    ["analyze", "--surface", "missing.json", *N],
    ["classify", "--surface", ".", *N],
    ["classify", "--surface", "helicoid.json", *N, "--out", "no_such_dir/r.json"],
    ["verify", "--surface", "sigma.json", *N, "--out", "no_such_dir/r.json"],
]

# runs in the child: each invocation through slantsurf.cli.main, then the
# sha256 of every file it created or changed.  Each invocation gets fresh
# warning filters, so a warning an earlier one printed is printed again.  An
# exception that escapes main exits 1 with its last traceback line, as the
# interpreter would.
CHILD = r"""
import contextlib, hashlib, io, json, os, sys, traceback, warnings
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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = 1
            err.write("uncaught " + "".join(traceback.format_exception_only(exc)))
    after = snapshot()
    files = {p: h for p, h in sorted(after.items()) if before.get(p) != h}
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "files": files})
json.dump(results, sys.stdout)
"""


def _flatten(value, path: str = ""):
    """(path, leaf) pairs of a JSON value, the path in ``a.b[2]`` form."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _largest_delta(pairs) -> str:
    """The largest |old - new| over differing leaf pairs, or why there is none."""
    if not all(_is_number(old) and _is_number(new) for old, new in pairs):
        return "non-numeric change"
    return f"max |delta| {max(abs(old - new) for old, new in pairs):.3g}"


def _table(rows: list) -> dict:
    """Column name -> one tuple of leaves per row; a row that is no object is one column."""
    columns: dict[str, list] = {}
    for row in rows:
        for name, value in (row.items() if isinstance(row, dict) else [("", row)]):
            columns.setdefault(name, []).append(tuple(leaf for _, leaf in _flatten(value)))
    return columns


def column_differences(label: str, old: dict, new: dict) -> list[str]:
    """One line per column of two tables that differs: rows that differ and the largest |delta|."""
    lines = []
    for name in dict.fromkeys([*old, *new]):
        column = f"{label}.{name}" if label and name else label or name
        old_rows, new_rows = old.get(name), new.get(name)
        if (old_rows is None or new_rows is None or len(old_rows) != len(new_rows)
                or any(len(a) != len(b) for a, b in zip(old_rows, new_rows))):
            lines.append(f"{column}: shape differs")
            continue
        rows = [(a, b) for a, b in zip(old_rows, new_rows) if a != b]
        if rows:
            pairs = [pair for a, b in rows for pair in zip(a, b) if pair[0] != pair[1]]
            lines.append(f"{column}: {len(rows)} of {len(old_rows)} rows differ, "
                         f"{_largest_delta(pairs)}")
    return lines


def json_differences(old, new) -> list[str]:
    """Column summaries of the two documents' top-level lists, then every other differing leaf."""
    lines = []
    if isinstance(old, dict) and isinstance(new, dict):
        tables = [key for key, value in old.items()
                  if isinstance(value, list) and isinstance(new.get(key), list)]
        for key in tables:
            lines += column_differences(key, _table(old[key]), _table(new[key]))
        old, new = ({k: v for k, v in doc.items() if k not in tables} for doc in (old, new))
    old_leaves, new_leaves = dict(_flatten(old)), dict(_flatten(new))
    missing = object()
    for path in dict.fromkeys([*old_leaves, *new_leaves]):
        a, b = old_leaves.get(path, missing), new_leaves.get(path, missing)
        if a is missing or b is missing:
            lines.append(f"{path}: only in {'change' if a is missing else 'parent'}")
        elif a != b:
            lines.append(f"{path}: {a!r} -> {b!r}, {_largest_delta([(a, b)])}")
    return lines


def csv_differences(old: str, new: str) -> list[str]:
    """Column summaries of two CSV tables whose first line is the header."""
    def columns(text: str) -> dict:
        header, *rows = (line.split(",") for line in text.splitlines())
        cells = zip(*rows) if rows else [()] * len(header)
        return {name: [(float(x),) for x in column] for name, column in zip(header, cells)}

    return column_differences("", columns(old), columns(new))


def file_differences(old: Path, new: Path) -> list[str]:
    """What differs between two versions of one written file."""
    a, b = old.read_text(encoding="utf-8"), new.read_text(encoding="utf-8")
    if old.suffix == ".json":
        lines = json_differences(json.loads(a), json.loads(b))
    elif old.suffix == ".csv":
        lines = csv_differences(a, b)
    else:
        old_lines, new_lines = a.splitlines(), b.splitlines()
        changed = sum(x != y for x, y in zip(old_lines, new_lines))
        lines = [f"{changed} of {len(old_lines)} lines differ"]
        if len(old_lines) != len(new_lines):
            lines.append(f"line count {len(old_lines)} -> {len(new_lines)}")
    return lines


def print_file_differences(old: dict, new: dict, old_dir: str, new_dir: str) -> None:
    """Describe each file one invocation wrote differently in the two trees."""
    for path in dict.fromkeys([*old, *new]):
        if old.get(path) == new.get(path):
            continue
        if path not in old or path not in new:
            print(f"  {path}: written only by the {'change' if path in new else 'parent'}")
            continue
        print(f"  {path}:")
        for line in file_differences(Path(old_dir, path), Path(new_dir, path)):
            print(f"    {line}")


def source_lines(src: str) -> int:
    """Lines of the ``slantsurf`` package under ``src``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in Path(src, "slantsurf").rglob("*.py"))


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
                if key == "files":
                    print_file_differences(old["files"], new["files"], tmp_a, tmp_b)
                else:
                    print(f"  parent {key}: {old[key]!r}\n  change {key}: {new[key]!r}")
        print(f"{differ} of {len(INVOCATIONS)} invocations differ")
        old_lines, new_lines = map(source_lines, argv)
        print(f"src/slantsurf lines: parent {old_lines}, change {new_lines}, "
              f"net {new_lines - old_lines:+d}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
