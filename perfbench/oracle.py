"""Correctness oracle for the benchmark, written from the closed forms.

Nothing here is read from the package under test: the expected verdicts, the
closed-form sigma and the closed-form ruled surfaces are written out by hand
from the geometry, so a wrong answer from the program cannot become its own
reference.  Every check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

VERDICT_KEYS = ("q", "h", "a", "darboux_strict", "darboux_angular")
AUDIT_IDS = ("2.1", "3.1", "cor3.1", "3.2", "3.3-3.4")

# Verdicts in VERDICT_KEYS order.  Constant kappa freezes W = kappa q + a, so
# both Darboux questions hold.  On the helicoid the director runs along the
# equator: q and h stay at a right angle to the axis (excluded) and a is the
# axis itself.  On the latitude cone and the hyperboloid q runs along a
# latitude circle, so q and a keep fixed non-right angles and h stays
# horizontal.
HELICOID = (False, False, True, True, True)
LATITUDE_CIRCLE = (True, False, True, True, True)
# sigma = d != 0 is exactly the h-slant case; the normalized Darboux vector
# then keeps a fixed angle too, while kappa (hence q, a and W itself) varies.
CONSTANT_SIGMA = (False, True, False, False, True)
# kappa = s1 gives sigma = 1 / (1 + s1^2)^(3/2), not constant: no fixed angle.
TABULATED_LINEAR = (False, False, False, False, False)

TABULATED_LINEAR_PARAMS = {"s1_knots": [0.0, 1.5, 3.0], "kappa_values": [0.0, 1.5, 3.0]}

# Below this, |sigma - d| is float64 rounding for the magnitudes involved and
# changes with any reordering of the arithmetic; it reads as this floor so
# that rounding never looks like an accuracy change.
SIGMA_ERR_FLOOR = 1e-12
VERTEX_TOL = 1e-9

Vec = tuple[float, float, float]


@dataclass
class Surface:
    """One benchmark input: its spec and what a correct answer looks like."""

    stem: str
    spec: dict
    verdicts: tuple[bool, ...]
    sigma: float | None  # closed-form constant sigma; None when sigma varies
    # closed-form (base point, director) at u on [0, 2 pi], for mesh checks
    ruling: Callable[[float], tuple[Vec, Vec]] | None = None


@dataclass
class Outcome:
    """What the oracle learned from one invocation's outputs."""

    problems: list[str] = field(default_factory=list)
    sigma_err: float | None = None
    audits_applicable: int = 0
    audits_passed: int = 0


def helicoid() -> Surface:
    def ruling(u: float) -> tuple[Vec, Vec]:
        return (0.0, 0.0, u), (math.cos(u), math.sin(u), 0.0)

    return Surface("helicoid", {"kind": "catalog", "name": "helicoid"},
                   HELICOID, 0.0, ruling)


def latitude_cone(beta: float) -> Surface:
    cb, sb = math.cos(beta), math.sin(beta)

    def ruling(u: float) -> tuple[Vec, Vec]:
        return (0.0, 0.0, 0.0), (cb * math.cos(u), cb * math.sin(u), sb)

    spec = {"kind": "catalog", "name": "latitude_cone", "params": {"beta": beta}}
    return Surface("latitude_cone", spec, LATITUDE_CIRCLE, 0.0, ruling)


def hyperboloid(r: float, pitch: float) -> Surface:
    scale = 1.0 / math.sqrt(1.0 + pitch * pitch)

    def ruling(u: float) -> tuple[Vec, Vec]:
        cu, su = math.cos(u), math.sin(u)
        return (r * cu, r * su, 0.0), (-su * scale, cu * scale, pitch * scale)

    spec = {"kind": "catalog", "name": "hyperboloid", "params": {"r": r, "pitch": pitch}}
    return Surface("hyperboloid", spec, LATITUDE_CIRCLE, 0.0, ruling)


def constant_sigma(d: float, stem: str = "constant_sigma") -> Surface:
    spec = {"kind": "catalog", "name": "constant_sigma", "params": {"d": d}}
    return Surface(stem, spec, CONSTANT_SIGMA, d)


def prescribed_constant_sigma(d: float, alpha: float) -> Surface:
    spec = {"kind": "prescribed_kappa",
            "profile": {"type": "constant_sigma", "d": d}, "alpha": alpha}
    return Surface("prescribed", spec, CONSTANT_SIGMA, d)


def tabulated_linear() -> Surface:
    spec = {"kind": "catalog", "name": "tabulated_kappa", "params": TABULATED_LINEAR_PARAMS}
    return Surface("tabulated_linear", spec, TABULATED_LINEAR, None)


def sampled_from(source: Surface, stem: str) -> Surface:
    """The sampled spec that ``generate`` writes for ``source``; same geometry."""
    return Surface(stem, {}, source.verdicts, source.sigma)


def digest(paths) -> str:
    """SHA-256 over the bytes of the files, in order: two runs of one command
    must agree on it."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_verdict_line(stdout: str, expected: tuple[bool, ...]) -> list[str]:
    want = " ".join(f"{k}_slant={v}" if k in ("q", "h", "a") else f"{k}={v}"
                    for k, v in zip(VERDICT_KEYS, expected))
    lines = stdout.splitlines()
    if not lines or lines[0] != want:
        return [f"verdict line {lines[:1]!r}, expected {want!r}"]
    return []


def check_report(path: Path, surface: Surface, samples: int, audits: bool) -> Outcome:
    out = Outcome()
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["meta"]["samples"] != samples or len(doc["samples"]) != samples:
            out.problems.append(f"{path.name}: expected {samples} sample rows")
        got = tuple(doc["slant"][k]["verdict"] for k in VERDICT_KEYS)
        if got != surface.verdicts:
            out.problems.append(f"{path.name}: verdicts {got}, expected {surface.verdicts}")
        if surface.sigma is not None:
            err = max(abs(row["sigma"] - surface.sigma) for row in doc["samples"])
            out.sigma_err = max(err, SIGMA_ERR_FLOOR)
        records = doc["audits"]
        if audits and tuple(records) != AUDIT_IDS:
            out.problems.append(f"{path.name}: audits {tuple(records)}, expected {AUDIT_IDS}")
        for record in records.values():
            if record["applicable"]:
                out.audits_applicable += 1
                out.audits_passed += record["passed"] is True
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.problems.append(f"{path.name}: unreadable report ({exc!r})")
    return out


def check_csv(path: Path, samples: int) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if len(lines) != samples + 1 or not lines[0].startswith("u,s1,kappa,"):
        return [f"{path.name}: {len(lines)} lines, expected a header and {samples} rows"]
    if any(len(line.split(",")) != 20 for line in lines):
        return [f"{path.name}: rows must have 20 fields"]
    return []


def check_obj(path: Path, surface: Surface, cols: int, rows: int,
              v_range: tuple[float, float]) -> list[str]:
    """Vertices must be f(u) + v q(u) on the uniform (u, v) grid; two
    triangles per cell."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        verts = [tuple(map(float, ln.split()[1:])) for ln in lines if ln.startswith("v ")]
        faces = [tuple(map(int, ln.split()[1:])) for ln in lines if ln.startswith("f ")]
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable mesh ({exc!r})"]
    if len(verts) != cols * rows or len(faces) != 2 * (cols - 1) * (rows - 1):
        return [f"{path.name}: {len(verts)} vertices and {len(faces)} faces "
                f"for a {cols}x{rows} grid"]
    if any(not 1 <= i <= len(verts) for face in faces for i in face):
        return [f"{path.name}: face index out of range"]
    v_lo, v_hi = v_range
    worst = 0.0
    for i in range(cols):
        u = 2.0 * math.pi * i / (cols - 1)
        f, q = surface.ruling(u)
        for j in range(rows):
            v = v_lo + (v_hi - v_lo) * j / (rows - 1)
            got = verts[i * rows + j]
            worst = max(worst, *(abs(got[k] - (f[k] + v * q[k])) for k in range(3)))
    if worst > VERTEX_TOL:
        return [f"{path.name}: vertex off the closed-form surface by {worst:.3e}"]
    return []


def check_sampled_spec(path: Path, rows: int) -> list[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        u, f, q = doc["u"], doc["f"], doc["q"]
        if doc["kind"] != "sampled" or not len(u) == len(f) == len(q) == rows:
            return [f"{path.name}: expected a sampled spec with {rows} rows"]
        if any(not b > a for a, b in zip(u, u[1:])):
            return [f"{path.name}: u is not strictly increasing"]
        if any(abs(math.sqrt(x * x + y * y + z * z) - 1.0) > 1e-9 for x, y, z in q):
            return [f"{path.name}: directors are not unit"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable spec ({exc!r})"]
    return []
