"""Surface spec files, analysis reports, sample tables, and mesh export.

Three spec kinds are accepted: ``catalog`` (a named reference surface),
``prescribed_kappa`` (a curvature profile integrated into a surface), and
``sampled`` (raw arrays of base points and directors, differentiated
through a local degree-7 interpolant of the table).  Reports are JSON with
fixed key order and floats printed at 17 significant digits, so identical
inputs always produce byte-identical files.  All writes go through a temp
file and an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, Sequence

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
from .geometry import Jet3, derivative_weights, dot, fd_jet, norm, normalize
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
    "fd_jet",  # perfbench/trace_child.py counts calls through this name
]

TOOL_NAME = "slantsurf"
TOOL_VERSION = "0.1.0"

CSV_HEADER = (
    "u,s1,kappa,kappa_prime,sigma,"
    "qx,qy,qz,hx,hy,hz,ax,ay,az,Wx,Wy,Wz,cx,cy,cz"
)

MIN_SAMPLED_ROWS = 16
SAMPLED_UNIT_TOL = 1e-6
# table rows behind each sampled jet: a degree-7 interpolant
SAMPLED_WINDOW = 8
# sample rows per `%` and characters per write: each bounds a temporary
ROW_BLOCK = 256
WRITE_SLICE = 1 << 20


# ---------------------------------------------------------------------------
# deterministic JSON


# FrameTable columns in report and CSV order, and the report row key of each
_COLUMNS = ("u", "s1", "kappa", "kappa_prime", "sigma", "q", "h", "a", "darboux", "striction")
_ROW_KEYS = ("u", "s1", "kappa", "kappa_prime", "sigma", "q", "h", "a", "W", "striction_point")


def _non_finite(value: float) -> SpecError:
    return SpecError(f"non-finite value {value!r} cannot be serialized")


def _finite(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, once checked: a non-finite value raises the error that
    ``_scalar_text`` gives, for the first such value a row-by-row walk meets."""
    bad = np.flatnonzero(~np.isfinite(matrix))
    if bad.size:
        raise _non_finite(float(matrix.flat[bad[0]]))
    return matrix


def _table_matrix(samples: FrameTable) -> np.ndarray:
    """The table as one checked (N, 20) matrix; read row by row, that is document order."""
    return _finite(np.column_stack([getattr(samples, name) for name in _COLUMNS]))


def _render_rows(matrix: np.ndarray, row: str, sep: str) -> Iterator[str]:
    """The rows of ``matrix`` through the ``%`` template ``row``, joined by ``sep``,
    as texts of ``ROW_BLOCK`` rows: one block's values are alive at a time."""
    for start in range(0, len(matrix), ROW_BLOCK):
        block = matrix[start:start + ROW_BLOCK]
        template = (sep if start else "") + sep.join([row] * len(block))
        yield template % tuple(block.ravel().tolist())


def _table_rows(samples: FrameTable, indent: int, out: list[str]) -> None:
    """The report's ``samples`` list: one dict per row, all from one template."""
    matrix = _table_matrix(samples)
    if not len(matrix):
        out.append("[]")
        return
    pad = "  " * indent
    fields = [f'{pad}    "{key}": '
              + ("%.17g" if getattr(samples, name).ndim == 1 else "[%.17g, %.17g, %.17g]")
              for key, name in zip(_ROW_KEYS, _COLUMNS)]
    row = f"{pad}  {{\n" + ",\n".join(fields) + f"\n{pad}  }}"
    out.append("[\n")
    out.extend(_render_rows(matrix, row, ",\n"))
    out.append(f"\n{pad}]")


_SCALARS = (bool, int, float, type(None))


def _scalar_text(value) -> str:
    """JSON text of a float, bool, int or None (float, the common case, first)."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _non_finite(value)
        return format(value, ".17g")
    if isinstance(value, bool):  # bool is an int subclass, test it before str()
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def _emit(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, _SCALARS):
        out.append(_scalar_text(value))
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
        if all(isinstance(x, _SCALARS) for x in items):
            out.append("[" + ", ".join(map(_scalar_text, items)) + "]")
        else:
            out.append("[\n")
            for i, item in enumerate(items):
                out.append(pad + "  ")
                _emit(item, indent + 1, out)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "]")
    elif isinstance(value, FrameTable):
        _table_rows(value, indent, out)
    else:
        raise SpecError(f"cannot serialize {type(value).__name__}")


def dumps_deterministic(doc: dict) -> str:
    """Render a document as JSON with fixed key order and .17g floats.

    A ``FrameTable`` value renders as the list of per-row dicts of a report's
    ``samples`` block.
    """
    out: list[str] = []
    _emit(doc, 0, out)
    out.append("\n")
    return "".join(out)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write through a private temp file in the target directory, then rename.

    The text is encoded ``WRITE_SLICE`` characters at a time.  Concurrent
    writers to one path never share a temp file, and a failed write removes
    its own.  An ``OSError`` names ``path``, never the temp file.
    """
    target, tmp = Path(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
        with open(fd, "w", encoding="utf-8") as handle:
            for start in range(0, len(text), WRITE_SLICE):
                handle.write(text[start:start + WRITE_SLICE])
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


def _table_jets(u: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Jets at ``t`` of the degree-7 polynomial through the 8 table rows around each point.

    The window is centred on the point and one-sided at the table ends, so no
    derivative reaches past the data.  Returns the (4, M, 3) stack of values
    and first three derivatives.
    """
    t = np.asarray(t, dtype=float)
    start = np.clip(np.searchsorted(u, t) - SAMPLED_WINDOW // 2, 0, len(u) - SAMPLED_WINDOW)
    window = start + np.arange(SAMPLED_WINDOW)[:, None]  # (8, M): one row per node
    return (derivative_weights(t, u[window])[..., None] * rows[window]).sum(axis=1)


def _unit_jet(p0, p1, p2, p3) -> Jet3:
    """Jet of q = p/|p| from the jet of p, by the chain rule to third order.

    With s = <p, p> and g = s^(-1/2), q = g p and

        g'   = -s' g^3 / 2
        g''  = 3 s'^2 g^5 / 4 - s'' g^3 / 2
        g''' = -15 s'^3 g^7 / 8 + 9 s' s'' g^5 / 4 - s''' g^3 / 2
    """
    g = 1.0 / norm(p0)
    s1 = 2.0 * dot(p0, p1)
    s2 = 2.0 * (dot(p1, p1) + dot(p0, p2))
    s3 = 2.0 * (3.0 * dot(p1, p2) + dot(p0, p3))
    cube, fifth, seventh = g**3, g**5, g**7
    dg1 = -0.5 * s1 * cube
    dg2 = 0.75 * s1 * s1 * fifth - 0.5 * s2 * cube
    dg3 = -1.875 * s1**3 * seventh + 2.25 * s1 * s2 * fifth - 0.5 * s3 * cube
    g, dg1, dg2, dg3 = g[:, None], dg1[:, None], dg2[:, None], dg3[:, None]
    return Jet3(
        normalize(p0),
        dg1 * p0 + g * p1,
        dg2 * p0 + 2.0 * dg1 * p1 + g * p2,
        dg3 * p0 + 3.0 * dg2 * p1 + 3.0 * dg1 * p2 + g * p3,
    )


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

    nodes = np.array(u)

    def base_curve(t: np.ndarray) -> Jet3:
        return Jet3(*_table_jets(nodes, f_rows, t))

    def director(t: np.ndarray) -> Jet3:
        return _unit_jet(*_table_jets(nodes, q_rows, t))

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
    """Parse a spec file; malformed JSON or text raises ``SpecError`` naming ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: not UTF-8 text ({exc})") from None
        except RecursionError:
            raise SpecError(f"{path}: JSON nested too deeply to read") from None


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


def report_document(
    surface: RuledSurfaceSpec,
    samples: FrameTable,
    report: SlantReport,
    audits: Sequence[AuditRecord] = (),
) -> dict:
    """Assemble the full analysis report for one surface sampling.

    The table itself stands under ``"samples"``; ``dumps_deterministic``
    renders it as one dict per row.
    """
    return {
        "meta": {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "surface": surface.provenance,
            "samples": len(samples),
            "tol": report.tol,
            "angle_tol": report.angle_tol,
        },
        "samples": samples,
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
            "kappa": asdict(report.kappa_constancy),
            "sigma": asdict(report.sigma_constancy),
        },
        # a record's fields are its block's keys; its audit id keys the block
        "audits": {record.audit: {key: value for key, value in asdict(record).items()
                                  if key != "audit"} for record in audits},
    }


def csv_table(samples: FrameTable) -> str:
    """Sample table as CSV text with a fixed header and .17g floats."""
    row = "\n" + ",".join(["%.17g"] * len(CSV_HEADER.split(",")))
    return "".join([CSV_HEADER, *_render_rows(_table_matrix(samples), row, ""), "\n"])


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
    the central normal a points to (for v > 0).  Vertices pass the report's
    finiteness check, and vertices and faces render through its row templates.
    """
    if grid_cols < 2 or rows < 2:
        raise SpecError("mesh needs at least 2 columns and 2 rows")
    if not (math.isfinite(v_min) and math.isfinite(v_max) and v_max > v_min):
        raise SpecError("degenerate v range: need v_min < v_max")
    try:
        v_values = SampleGrid.uniform((v_min, v_max), rows).u_values
    except ValueError:
        raise SpecError(f"degenerate v range: {rows} rows between v_min={v_min!r} and "
                        f"v_max={v_max!r} are not distinct") from None
    u_values = SampleGrid.uniform(surface.param_range, grid_cols).u_values
    f0 = surface.base_curve(u_values).d0
    q0 = surface.director(u_values).d0
    points = f0[:, None, :] + q0[:, None, :] * v_values[None, :, None]
    # the 1-based index of each cell's (u_i, v_j) corner, and of its (u_i+1, v_j) corner
    corner = (np.arange(grid_cols - 1)[:, None] * rows + np.arange(1, rows)).ravel()
    across = corner + rows
    faces = np.column_stack((corner, corner + 1, across + 1, corner, across + 1, across))
    return "".join([*_render_rows(_finite(points.reshape(-1, 3)), "v %.17g %.17g %.17g\n", ""),
                    *_render_rows(faces, "f %d %d %d\nf %d %d %d\n", "")])
