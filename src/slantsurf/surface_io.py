"""Surface spec files, analysis reports, sample tables, and mesh export.

Three spec kinds are accepted: ``catalog`` (a named reference surface),
``prescribed_kappa`` (a curvature profile integrated into a surface), and
``sampled`` (raw arrays of base points and directors, differentiated with
the finite-difference oracle).  Reports are JSON with fixed key order and
floats printed at 17 significant digits, so identical inputs always produce
byte-identical files.  All writes go through a temp file and an atomic
rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .frame import FrameTable, RuledSurfaceSpec, SampleGrid
from .generators import (
    GENERATOR_KEYS,
    SpecError,
    build_surface,
    catalog,
    check_keys,
    finite_floats,
    generator_config,
    integrate_frame,
)
from .geometry import Jet3, fd_jet, norm, normalize
from .slant import AuditRecord, SlantReport, SlantVerdict

__all__ = [
    "SpecError",
    "TOOL_NAME",
    "TOOL_VERSION",
    "CSV_HEADER",
    "dumps_deterministic",
    "load_surface",
    "read_spec",
    "sampled_spec_document",
    "report_document",
    "csv_table",
    "export_obj",
    "write_text_atomic",
    "write_json_atomic",
]

TOOL_NAME = "slantsurf"
TOOL_VERSION = "0.1.0"

CSV_HEADER = (
    "u,s1,kappa,kappa_prime,sigma,"
    "qx,qy,qz,hx,hy,hz,ax,ay,az,Wx,Wy,Wz,cx,cy,cz"
)

MIN_SAMPLED_ROWS = 16
SAMPLED_UNIT_TOL = 1e-6
# fd step for sampled specs, as a fraction of the u span
SAMPLED_FD_FRACTION = 1e-3


# ---------------------------------------------------------------------------
# deterministic JSON


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise SpecError(f"non-finite value {value!r} cannot be serialized")
    return format(value, ".17g")


def _emit(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, bool):  # bool is an int subclass, test it first
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise SpecError(f"non-string key {key!r}")
            out.append(f'{pad}  "{key}": ')
            _emit(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        scalars = all(
            isinstance(x, (bool, int, float)) or x is None for x in items
        )
        if scalars:
            out.append("[")
            for i, item in enumerate(items):
                _emit(item, indent, out)
                if i + 1 < len(items):
                    out.append(", ")
            out.append("]")
        else:
            out.append("[\n")
            for i, item in enumerate(items):
                out.append(pad + "  ")
                _emit(item, indent + 1, out)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "]")
    else:
        raise SpecError(f"cannot serialize {type(value).__name__}")


def dumps_deterministic(doc: dict) -> str:
    """Render a document as JSON with fixed key order and .17g floats."""
    out: list[str] = []
    _emit(doc, 0, out)
    out.append("\n")
    return "".join(out)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write through a private temp file in the target directory, then rename.

    Concurrent writers to one path never share a temp file, and a failed
    write removes its own.  An ``OSError`` names ``path``, never the temp file.
    """
    target, tmp = Path(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode a plain open would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def write_json_atomic(path: str | Path, doc: dict) -> None:
    write_text_atomic(path, dumps_deterministic(doc))


# ---------------------------------------------------------------------------
# spec loading


def _as_vec_rows(value, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise SpecError(f"{where}: expected a list of [x, y, z] rows")
    rows = [finite_floats(row, f"{where}[{i}]", 3) for i, row in enumerate(value)]
    return np.array(rows, dtype=float).reshape(len(rows), 3)


def _load_catalog(doc: dict) -> RuledSurfaceSpec:
    check_keys(doc, ("kind", "name"), ("params",), "spec")
    name = doc["name"]
    if not isinstance(name, str):
        raise SpecError("spec.name: expected a string")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecError("spec.params: expected an object")
    return catalog(name, params)


def _load_prescribed(doc: dict) -> RuledSurfaceSpec:
    check_keys(doc, ("kind", "profile"), GENERATOR_KEYS, "spec")
    config = generator_config(doc["profile"], doc)
    return build_surface(integrate_frame(config), config)


def _load_sampled(doc: dict) -> RuledSurfaceSpec:
    check_keys(doc, ("kind", "u", "f", "q"), (), "spec")
    u = finite_floats(doc["u"], "spec.u")
    f_rows = _as_vec_rows(doc["f"], "spec.f")
    q_rows = _as_vec_rows(doc["q"], "spec.q")
    if not (len(u) == len(f_rows) == len(q_rows)):
        raise SpecError("spec: u, f and q must have equal lengths")
    if len(u) < MIN_SAMPLED_ROWS:
        raise SpecError(f"spec: need at least {MIN_SAMPLED_ROWS} sample rows")
    for i, (left, right) in enumerate(zip(u, u[1:])):
        if not right > left:
            raise SpecError(f"spec.u[{i + 1}]: values must be strictly increasing")
    q_norms = norm(q_rows)
    off = np.flatnonzero(np.abs(q_norms - 1.0) > SAMPLED_UNIT_TOL)
    if off.size:
        raise SpecError(
            f"spec.q[{off[0]}]: director must be unit length within "
            f"{SAMPLED_UNIT_TOL:g} (norm {float(q_norms[off[0]])!r})"
        )

    from scipy.interpolate import CubicSpline  # ~0.7 s import: load only here

    f_spline = CubicSpline(u, f_rows)
    q_spline = CubicSpline(u, q_rows)
    fd_step = SAMPLED_FD_FRACTION * (u[-1] - u[0])

    def base_curve(t: np.ndarray) -> Jet3:
        return fd_jet(f_spline, t, fd_step)

    def director(t: np.ndarray) -> Jet3:
        return fd_jet(lambda x: normalize(q_spline(x)), t, fd_step)

    return RuledSurfaceSpec(
        base_curve=base_curve,
        director=director,
        param_range=(u[0], u[-1]),
        provenance={"kind": "sampled", "count": len(u)},
    )


def load_surface(doc: dict) -> RuledSurfaceSpec:
    """Build a surface from a parsed spec document."""
    if not isinstance(doc, dict):
        raise SpecError("spec: expected a JSON object")
    kind = doc.get("kind")
    if kind == "catalog":
        return _load_catalog(doc)
    if kind == "prescribed_kappa":
        return _load_prescribed(doc)
    if kind == "sampled":
        return _load_sampled(doc)
    raise SpecError(f"spec.kind: expected one of catalog, prescribed_kappa, sampled; got {kind!r}")


def read_spec(path: str | Path) -> dict:
    """Parse a spec file; malformed JSON raises ``SpecError``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# documents


def sampled_spec_document(surface: RuledSurfaceSpec, count: int) -> dict:
    """Tabulate a surface into a self-contained sampled spec."""
    if count < MIN_SAMPLED_ROWS:
        raise SpecError(f"sampled specs need at least {MIN_SAMPLED_ROWS} rows")
    u = SampleGrid.uniform(surface.param_range, count).u_values
    return {
        "kind": "sampled",
        "u": u.tolist(),
        "f": surface.base_curve(u).d0.tolist(),
        "q": surface.director(u).d0.tolist(),
    }


def _verdict_block(v: SlantVerdict, scalar_key: str, with_angle: bool) -> dict:
    block = {
        "verdict": v.verdict,
        "axis": v.axis.tolist(),
        scalar_key: v.constant,
        "residual": v.residual,
        "spread": v.spread,
    }
    if with_angle:
        block["angle"] = math.acos(min(1.0, max(-1.0, v.constant)))
    return block


def _constancy_block(c) -> dict:
    return {
        "mean": c.mean,
        "spread": c.spread,
        "relative_spread": c.relative_spread,
        "is_constant": c.is_constant,
    }


def _audit_block(record: AuditRecord) -> dict:
    return {
        "applicable": record.applicable,
        "passed": record.passed,
        "checks": [
            {"name": c.name, "value": c.value, "bound": c.bound, "ok": c.ok}
            for c in record.checks
        ],
        "notes": list(record.notes),
    }


def _table_columns(samples: FrameTable) -> list[list]:
    """The table's columns as plain Python lists, in report and CSV order."""
    return [
        getattr(samples, name).tolist()
        for name in ("u", "s1", "kappa", "kappa_prime", "sigma",
                     "q", "h", "a", "darboux", "striction")
    ]


def report_document(
    surface: RuledSurfaceSpec,
    samples: FrameTable,
    report: SlantReport,
    audits: Sequence[AuditRecord] = (),
) -> dict:
    """Assemble the full analysis report for one surface sampling."""
    sample_rows = [
        {
            "u": u,
            "s1": s1,
            "kappa": kappa,
            "kappa_prime": kp,
            "sigma": sig,
            "q": q,
            "h": h,
            "a": a,
            "W": w,
            "striction_point": c,
        }
        for u, s1, kappa, kp, sig, q, h, a, w, c in zip(*_table_columns(samples))
    ]
    return {
        "meta": {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "surface": surface.provenance,
            "samples": len(sample_rows),
            "tol": report.tol,
            "angle_tol": report.angle_tol,
        },
        "samples": sample_rows,
        "slant": {
            "q": _verdict_block(report.q_slant, "constant", True),
            "h": _verdict_block(report.h_slant, "constant", True),
            "a": _verdict_block(report.a_slant, "constant", True),
            "darboux_strict": _verdict_block(
                report.darboux_strict, "darboux_constant", False
            ),
            "darboux_angular": _verdict_block(
                report.darboux_angular, "constant", True
            ),
            "kappa": _constancy_block(report.kappa_constancy),
            "sigma": _constancy_block(report.sigma_constancy),
        },
        "audits": {record.audit: _audit_block(record) for record in audits},
    }


def csv_table(samples: FrameTable) -> str:
    """Sample table as CSV text with a fixed header and .17g floats."""
    lines = [CSV_HEADER]
    for u, s1, kappa, kp, sig, *vectors in zip(*_table_columns(samples)):
        fields = [u, s1, kappa, kp, sig, *(x for v in vectors for x in v)]
        lines.append(",".join(_format_float(x) for x in fields))
    return "\n".join(lines) + "\n"


def export_obj(
    surface: RuledSurfaceSpec,
    grid_cols: int,
    v_min: float,
    v_max: float,
    rows: int,
) -> str:
    """Mesh the strip r(u, v) = f(u) + v q(u) as Wavefront OBJ text.

    Vertices are emitted row-major with u as the outer index; each quad is
    split into two triangles wound counterclockwise when seen from the side
    the central normal a points to (for v > 0).
    """
    if grid_cols < 2 or rows < 2:
        raise SpecError("mesh needs at least 2 columns and 2 rows")
    if not (math.isfinite(v_min) and math.isfinite(v_max) and v_max > v_min):
        raise SpecError("degenerate v range: need v_min < v_max")
    u_values = SampleGrid.uniform(surface.param_range, grid_cols).u_values
    dv = (v_max - v_min) / (rows - 1)
    v_values = np.array([v_min + k * dv for k in range(rows - 1)] + [v_max])

    f0 = surface.base_curve(u_values).d0
    q0 = surface.director(u_values).d0
    points = f0[:, None, :] + q0[:, None, :] * v_values[None, :, None]
    lines = [
        f"v {_format_float(x)} {_format_float(y)} {_format_float(z)}"
        for x, y, z in points.reshape(-1, 3).tolist()
    ]

    def idx(i: int, j: int) -> int:
        return i * rows + j + 1

    for i in range(grid_cols - 1):
        for j in range(rows - 1):
            a = idx(i, j)
            b = idx(i, j + 1)
            c = idx(i + 1, j)
            d = idx(i + 1, j + 1)
            lines.append(f"f {a} {b} {d}")
            lines.append(f"f {a} {d} {c}")
    return "\n".join(lines) + "\n"
