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
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
from .geometry import Jet3, derivative_weights, dot, fd_jet, norm
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
# rows per `%` block, points per sampled-jet block and characters per write: each
# bounds a temporary.  A jet block costs about a hundred numpy calls, a row block ten
ROW_BLOCK = 16
JET_BLOCK = 512
WRITE_SLICE = 1 << 16


# ---------------------------------------------------------------------------
# deterministic JSON


# FrameTable columns in report and CSV order, and the report row key of each
_COLUMNS = ("u", "s1", "kappa", "kappa_prime", "sigma", "q", "h", "a", "darboux", "striction")
_ROW_KEYS = ("u", "s1", "kappa", "kappa_prime", "sigma", "q", "h", "a", "W", "striction_point")


def _non_finite(value: float) -> SpecError:
    return SpecError(f"non-finite value {value!r} cannot be serialized")


def _finite(columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``columns`` as (N, 1) and (N, k) views, once checked: a non-finite value raises
    ``_scalar_text``'s error for the first one a row-by-row walk meets.  One bool mask
    marks the bad rows and the first is read alone, so no matrix of all columns is built."""
    columns = [column[:, None] if column.ndim == 1 else column for column in columns]
    bad = np.zeros(len(columns[0]), dtype=bool)
    for column in columns:
        bad |= ~np.isfinite(column).all(axis=1)
    rows = np.flatnonzero(bad)
    if rows.size:
        row = np.concatenate([column[rows[0]] for column in columns])
        raise _non_finite(float(row[~np.isfinite(row)][0]))
    return columns


def _render_rows(columns: Sequence[np.ndarray], row: str, sep: str) -> Iterator[str]:
    """The rows of the 2-D ``columns`` side by side through the ``%`` template ``row``,
    joined by ``sep``, as texts of ``ROW_BLOCK`` rows: one block's values are alive at a
    time.  One template serves every full block; a short last block builds its own."""
    template = sep.join([row] * ROW_BLOCK)
    for start in range(0, len(columns[0]), ROW_BLOCK):
        block = np.concatenate([column[start:start + ROW_BLOCK] for column in columns], axis=1)
        if len(block) < ROW_BLOCK:
            template = sep.join([row] * len(block))
        if start:
            yield sep
        yield template % tuple(block.ravel().tolist())


def _bracketed(columns: list[np.ndarray], row: str, indent: int, out: list) -> None:
    """The rows of ``columns`` through ``row`` as a JSON list at ``indent``, one row a line."""
    pad = "  " * indent
    out += (["[\n", _render_rows(columns, f"{pad}  {row}", ",\n"), f"\n{pad}]"]
            if len(columns[0]) else ["[]"])


def _table_rows(samples: FrameTable, indent: int, out: list) -> None:
    """The report's ``samples`` list: one dict per row, all from one template."""
    columns = _finite([getattr(samples, name) for name in _COLUMNS])
    pad = "  " * indent
    fields = [f'{pad}    "{key}": '
              + ("%.17g" if column.shape[1] == 1 else "[%.17g, %.17g, %.17g]")
              for key, column in zip(_ROW_KEYS, columns)]
    _bracketed(columns, "{\n" + ",\n".join(fields) + f"\n{pad}  }}", indent, out)


def _array_rows(array: np.ndarray, indent: int, out: list) -> None:
    """An array as the text of its ``tolist()``: a 1-D or 2-D float array from one
    row template after one ``_finite`` check, any other through the list walk."""
    if array.dtype != np.float64 or array.ndim not in (1, 2):
        _emit(array.tolist(), indent, out)
    elif array.ndim == 1:
        out += ["[", _render_rows(_finite([array]), "%.17g", ", "), "]"]
    else:
        _bracketed(_finite([array]), f"[{', '.join(['%.17g'] * array.shape[1])}]", indent, out)


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


def _emit(value, indent: int, out: list) -> None:
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
    elif isinstance(value, np.ndarray):
        _array_rows(value, indent, out)
    else:
        raise SpecError(f"cannot serialize {type(value).__name__}")


def _pieces(parts: Iterable[str | Iterator[str]]) -> Iterator[str]:
    """The strings of ``parts`` and the pieces of its iterators, in order."""
    for part in parts:
        yield from (part,) if isinstance(part, str) else part


def _joined(parts: Iterable[str | Iterator[str]]) -> str:
    """The pieces of ``parts`` appended to one ``str``.

    CPython resizes ``text`` in place for ``+=`` while this local holds its only
    reference, so the text is never alive beside a copy of itself or beside all
    its row blocks (``"".join`` and ``io.StringIO`` peak at 2.00x the text).
    """
    text = ""
    for piece in _pieces(parts):
        text += piece
    return text


def _document(doc: dict) -> list:
    """``doc``'s JSON text in parts, all checked: a table's rows render when read."""
    out: list = []
    _emit(doc, 0, out)
    out.append("\n")
    return out


def dumps_deterministic(doc: dict) -> str:
    """Render a document as JSON with fixed key order and .17g floats.

    A ``FrameTable`` value renders as the list of per-row dicts of a report's
    ``samples`` block.
    """
    return _joined(_document(doc))


def _write_atomic(path: str | Path, parts: Iterable[str | Iterator[str]]) -> None:
    """Write ``parts`` through a private temp file in the target directory, then rename.

    A generator part is read one piece at a time, and each piece is encoded
    ``WRITE_SLICE`` characters at a time.  Concurrent writers to one path never
    share a temp file, and a failed write removes its own.  An ``OSError``
    names ``path``, never the temp file.
    """
    target, tmp = Path(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
        with open(fd, "w", encoding="utf-8") as handle:
            for piece in _pieces(parts):
                for start in range(0, len(piece), WRITE_SLICE):
                    handle.write(piece[start:start + WRITE_SLICE])
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


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (see ``_write_atomic``)."""
    _write_atomic(path, [text])


def write_json_atomic(path: str | Path, doc: dict) -> None:
    """``dumps_deterministic(doc)`` streamed, one row block at a time, once
    ``_document`` has raised any ``SpecError`` with no file created."""
    _write_atomic(path, _document(doc))


# ---------------------------------------------------------------------------
# spec loading


def _as_floats(value, where: str, width: int | None = None) -> np.ndarray:
    """``value`` as a float column, or (M, ``width``) rows: one type walk, one
    ``np.fromiter``, one ``np.isfinite``.  An array is read as its ``tolist()``.

    Any other value is walked again by ``finite_floats``, which names its first
    bad item or accepts tuple rows and other real numbers.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if width is None:
        plain = isinstance(value, (list, tuple)) and set(map(type, value)) <= {float, int}
    elif not isinstance(value, list):
        raise SpecError(f"{where}: expected a list of [x, y, z] rows")
    else:
        plain = (set(map(type, value)) <= {list} and set(map(len, value)) <= {width}
                 and set(map(type, chain.from_iterable(value))) <= {float, int})
    if plain:
        try:
            array = np.fromiter(value if width is None else chain.from_iterable(value), float)
            if np.isfinite(array).all():
                return array if width is None else array.reshape(len(value), width)
        except OverflowError:  # an int beyond float range, which the walk names
            pass
    if width is None:
        return np.array(finite_floats(value, where))
    rows = [finite_floats(row, f"{where}[{i}]", width) for i, row in enumerate(value)]
    return np.array(rows, dtype=float).reshape(len(rows), width)


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


def _table_jet(u: np.ndarray, rows: np.ndarray, t: np.ndarray, unit: bool) -> Jet3:
    """Jet at ``t`` of the degree-7 polynomial through the 8 table rows around each
    point, through ``_unit_jet`` when ``unit``.

    The window is centred on the point and one-sided at the table ends, so no
    derivative reaches past the data.  The points go ``JET_BLOCK`` at a time,
    so one block's windows, weights and (4, 8, B, 3) product are the largest
    temporaries.  Each block lands in four separate (M, 3) arrays, not one
    stack, so a column a caller keeps holds no other.
    """
    t = np.asarray(t, dtype=float)
    jet = Jet3(*(np.empty((len(t), 3)) for _ in range(4)))
    for lo in range(0, len(t), JET_BLOCK):
        at = t[lo:lo + JET_BLOCK]
        start = np.clip(np.searchsorted(u, at) - SAMPLED_WINDOW // 2, 0, len(u) - SAMPLED_WINDOW)
        window = start + np.arange(SAMPLED_WINDOW)[:, None]  # (8, B): one row per node
        d = (derivative_weights(at, u[window])[..., None] * rows[window]).sum(axis=1)
        if unit:
            d = _unit_jet(*d)
        for whole, block in zip((jet.d0, jet.d1, jet.d2, jet.d3), d):
            whole[lo:lo + JET_BLOCK] = block
    return jet


def _unit_jet(p0, p1, p2, p3) -> tuple[np.ndarray, ...]:
    """Jet (q, q', q'', q''') of q = p/|p| from the jet of p, by the chain rule to third order.

    With s = <p, p> and g = s^(-1/2), q = g p and

        g'   = -s' g^3 / 2
        g''  = 3 s'^2 g^5 / 4 - s'' g^3 / 2
        g''' = -15 s'^3 g^7 / 8 + 9 s' s'' g^5 / 4 - s''' g^3 / 2
    """
    n = norm(p0)
    g = 1.0 / n
    s1 = 2.0 * dot(p0, p1)
    s2 = 2.0 * (dot(p1, p1) + dot(p0, p2))
    s3 = 2.0 * (3.0 * dot(p1, p2) + dot(p0, p3))
    cube, fifth, seventh = g**3, g**5, g**7
    dg1 = -0.5 * s1 * cube
    dg2 = 0.75 * s1 * s1 * fifth - 0.5 * s2 * cube
    dg3 = -1.875 * s1**3 * seventh + 2.25 * s1 * s2 * fifth - 0.5 * s3 * cube
    g, dg1, dg2, dg3 = g[:, None], dg1[:, None], dg2[:, None], dg3[:, None]
    return (
        p0 / n[:, None],
        dg1 * p0 + g * p1,
        dg2 * p0 + 2.0 * dg1 * p1 + g * p2,
        dg3 * p0 + 3.0 * dg2 * p1 + 3.0 * dg1 * p2 + g * p3,
    )


def _load_sampled(doc: dict) -> RuledSurfaceSpec:
    check_keys(doc, ("kind", "u", "f", "q"), (), "spec")
    nodes = _as_floats(doc["u"], "spec.u")
    f_rows = _as_floats(doc["f"], "spec.f", 3)
    q_rows = _as_floats(doc["q"], "spec.q", 3)
    if not (len(nodes) == len(f_rows) == len(q_rows)):
        raise SpecError("spec: u, f and q must have equal lengths")
    if len(nodes) < MIN_SAMPLED_ROWS:
        raise SpecError(f"spec: need at least {MIN_SAMPLED_ROWS} sample rows")
    stalled = np.flatnonzero(nodes[1:] <= nodes[:-1])
    if stalled.size:
        raise SpecError(f"spec.u[{stalled[0] + 1}]: values must be strictly increasing")
    q_norms = norm(q_rows)
    off = np.flatnonzero(np.abs(q_norms - 1.0) > SAMPLED_UNIT_TOL)
    if off.size:
        raise SpecError(
            f"spec.q[{off[0]}]: director must be unit length within "
            f"{SAMPLED_UNIT_TOL:g} (norm {float(q_norms[off[0]])!r})"
        )

    def base_curve(t: np.ndarray) -> Jet3:
        return _table_jet(nodes, f_rows, t, unit=False)

    def director(t: np.ndarray) -> Jet3:
        return _table_jet(nodes, q_rows, t, unit=True)

    return RuledSurfaceSpec(
        base_curve=base_curve,
        director=director,
        param_range=(nodes[0].item(), nodes[-1].item()),
        provenance={"kind": "sampled", "count": len(nodes)},
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
        except ValueError:  # an integer literal past Python's integer string conversion limit
            raise SpecError(f"{path}: an integer has too many digits to read") from None


# ---------------------------------------------------------------------------
# documents


def sampled_spec_document(surface: RuledSurfaceSpec, count: int) -> dict:
    """Tabulate a surface into a self-contained sampled spec of ``u``, ``f`` and ``q`` arrays."""
    if count < MIN_SAMPLED_ROWS:
        raise SpecError(f"sampled specs need at least {MIN_SAMPLED_ROWS} rows")
    u = SampleGrid.uniform(surface.param_range, count).u_values.copy()  # writable, as f and q
    return {
        "kind": "sampled",
        "u": u,
        "f": surface.base_curve(u).d0,
        "q": surface.director(u).d0,
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
    columns = _finite([getattr(samples, name) for name in _COLUMNS])
    return _joined([CSV_HEADER, _render_rows(columns, row, ""), "\n"])


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
    return _joined([_render_rows(_finite([points.reshape(-1, 3)]), "v %.17g %.17g %.17g\n", ""),
                    _render_rows([faces], "f %d %d %d\nf %d %d %d\n", "")])
