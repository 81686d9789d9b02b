"""Command line front end.

Five subcommands: ``analyze`` and ``classify`` sample a surface and write a
report, ``generate`` tabulates a catalog or prescribed-curvature spec into a
self-contained sampled spec, ``verify`` runs the named numerical audits, and
``export`` meshes the strip as OBJ.

Exit codes: 0 success, 1 usage or schema problems, 2 cylindrical surface
(the director stops moving somewhere), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .frame import SampleGrid, frame_samples
from .generators import BadParams, OutOfDomain, UnknownCatalogName
from .geometry import CylindricalDirector
from .slant import (
    MIN_AXIS_SAMPLES,
    classify_samples,
    verify_corollary_3_1,
    verify_theorem_2_1,
    verify_theorem_3_1,
    verify_theorem_3_2,
    verify_theorems_3_3_3_4,
)
from .surface_io import (
    MIN_SAMPLED_ROWS,
    SpecError,
    csv_table,
    export_obj,
    load_surface,
    read_spec,
    report_document,
    sampled_spec_document,
    write_json_atomic,
    write_text_atomic,
)

__all__ = [
    "Analyze",
    "Classify",
    "Generate",
    "Verify",
    "Export",
    "Command",
    "parse_cli",
    "run",
    "main",
]

DEFAULT_SAMPLES = 512
DEFAULT_TOL = 1e-6
SAMPLED_TOL = 1e-3
DEFAULT_ANGLE_TOL = 1e-3

AUDITORS = {
    "2.1": verify_theorem_2_1,
    "3.1": verify_theorem_3_1,
    "cor3.1": verify_corollary_3_1,
    "3.2": verify_theorem_3_2,
    "3.3-3.4": verify_theorems_3_3_3_4,
}
THEOREM_IDS = (*AUDITORS, "all")


@dataclass(frozen=True)
class Analyze:
    surface: str
    samples: int = DEFAULT_SAMPLES
    tol: float | None = None
    angle_tol: float = DEFAULT_ANGLE_TOL
    out: str = "report.json"
    csv: bool = False


class Classify(Analyze):
    """``analyze`` that also prints the five verdicts."""


@dataclass(frozen=True)
class Generate:
    surface: str
    samples: int = DEFAULT_SAMPLES
    out: str = "surface.json"


@dataclass(frozen=True)
class Verify(Analyze):
    """``analyze`` plus the named audits."""

    theorem: str = "all"


@dataclass(frozen=True)
class Export:
    surface: str
    grid_cols: int = 64
    grid_rows: int = 8
    v_min: float = -1.0
    v_max: float = 1.0
    out: str = "surface.obj"


Command = Analyze | Classify | Generate | Verify | Export


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _grid(text: str) -> tuple[int, int]:
    try:
        cols, rows = text.lower().split("x")
        cols, rows = int(cols), int(rows)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected COLSxROWS, got {text!r}") from None
    if cols < 2 or rows < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2x2, got {text!r}")
    return cols, rows


def _v_range(text: str) -> tuple[float, float]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}")
    try:
        return float(head), float(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}") from None


def _value_where(convert, check, rule: str):
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}") from None
        if not check(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


def _count_at_least(minimum: int):
    return _value_where(int, lambda n: n >= minimum, f"an integer >= {minimum}")


_tol = _value_where(float, lambda x: math.isfinite(x) and x > 0.0, "finite and > 0")
_angle_tol = _value_where(float, lambda x: 0.0 <= x < 1.0, "in [0, 1)")


def _add_analysis_flags(sub: argparse.ArgumentParser, default_out: str) -> None:
    sub.add_argument("--surface", required=True, help="surface spec JSON path")
    sub.add_argument("--samples", type=_count_at_least(MIN_AXIS_SAMPLES),
                     default=DEFAULT_SAMPLES, help="number of u samples (default 512)")
    sub.add_argument("--tol", type=_tol, default=None,
                     help="constancy tolerance (default 1e-6; 1e-3 for sampled specs)")
    sub.add_argument("--angle-tol", type=_angle_tol, default=DEFAULT_ANGLE_TOL,
                     help="right-angle exclusion margin (default 1e-3)")
    sub.add_argument("--out", default=default_out, help="report path")
    sub.add_argument("--csv", action="store_true",
                     help="also write the sample table as CSV next to the report")


def parse_cli(argv: Sequence[str]) -> Command:
    parser = _Parser(prog="slant",
                     description="slant classification of ruled surfaces")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_analysis_flags(subs.add_parser("analyze", help="sample and report"),
                        "report.json")
    _add_analysis_flags(subs.add_parser("classify", help="answer the slant questions"),
                        "report.json")

    gen = subs.add_parser("generate", help="tabulate a spec into a sampled spec")
    gen.add_argument("--surface", required=True, help="catalog or prescribed_kappa spec")
    gen.add_argument("--samples", type=_count_at_least(MIN_SAMPLED_ROWS),
                     default=DEFAULT_SAMPLES, help="rows to tabulate (default 512)")
    gen.add_argument("--out", default="surface.json", help="output spec path")

    ver = subs.add_parser("verify", help="run numerical audits")
    _add_analysis_flags(ver, "report.json")
    ver.add_argument("--theorem", choices=THEOREM_IDS, default="all",
                     help="which audit to run (default all)")

    exp = subs.add_parser("export", help="mesh the strip as OBJ")
    exp.add_argument("--surface", required=True, help="surface spec JSON path")
    exp.add_argument("--grid", type=_grid, default=(64, 8),
                     help="mesh resolution COLSxROWS (default 64x8)")
    exp.add_argument("--v-range", type=_v_range, default=(-1.0, 1.0),
                     help="ruling extent MIN:MAX (default -1:1)")
    exp.add_argument("--out", default="surface.obj", help="output OBJ path")

    # argparse refuses option values that start with a dash, which v ranges
    # like "-1:1" legitimately do; fold them into --v-range=VALUE form
    merged: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--v-range" and i + 1 < len(argv):
            merged.append(f"--v-range={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)

    args = parser.parse_args(merged)
    if args.command in ("analyze", "classify", "verify"):
        analysis = (args.surface, args.samples, args.tol, args.angle_tol, args.out, args.csv)
        if args.command == "verify":
            return Verify(*analysis, args.theorem)
        return (Analyze if args.command == "analyze" else Classify)(*analysis)
    if args.command == "generate":
        return Generate(args.surface, args.samples, args.out)
    return Export(args.surface, args.grid[0], args.grid[1],
                  args.v_range[0], args.v_range[1], args.out)


def _resolve_tol(tol: float | None, kind: str) -> float:
    if tol is not None:
        return tol
    return SAMPLED_TOL if kind == "sampled" else DEFAULT_TOL


def _analysis_report(cmd: Analyze):
    surface = load_surface(read_spec(cmd.surface))
    tol = _resolve_tol(cmd.tol, surface.provenance["kind"])
    grid = SampleGrid.uniform(surface.param_range, cmd.samples)
    samples = frame_samples(surface, grid)
    report = classify_samples(samples, tol, cmd.angle_tol)
    return surface, grid, samples, report


def _write_report(cmd: Analyze, surface, samples, report, audits) -> None:
    write_json_atomic(cmd.out, report_document(surface, samples, report, audits))
    print(f"wrote {cmd.out}")
    if cmd.csv:
        csv_path = Path(cmd.out).with_suffix(".csv")
        write_text_atomic(csv_path, csv_table(samples))
        print(f"wrote {csv_path}")


def _run_verify(cmd: Verify) -> int:
    surface, grid, samples, report = _analysis_report(cmd)
    ids = list(AUDITORS) if cmd.theorem == "all" else [cmd.theorem]
    # every audit reads this one classification of the samples
    kwargs = {"angle_tol": cmd.angle_tol, "samples": samples, "report": report}
    if cmd.tol is not None:
        kwargs["tol"] = cmd.tol
    elif report.tol != DEFAULT_TOL:
        # sampled spec: keep audits on the loosened budget too
        kwargs["tol"] = report.tol
    records = []
    for tid in ids:
        record = AUDITORS[tid](surface, grid, **kwargs)
        records.append(record)
        state = "passed" if record.passed else (
            "not applicable" if record.passed is None else "FAILED")
        print(f"audit {tid}: {state}")
    _write_report(cmd, surface, samples, report, records)
    return 0


def run(command: Command) -> int:
    """Execute a parsed command; returns the process exit code."""
    try:
        if isinstance(command, Verify):
            return _run_verify(command)
        if isinstance(command, Analyze):
            surface, grid, samples, report = _analysis_report(command)
            if isinstance(command, Classify):
                print(
                    f"q_slant={report.q_slant.verdict} "
                    f"h_slant={report.h_slant.verdict} "
                    f"a_slant={report.a_slant.verdict} "
                    f"darboux_strict={report.darboux_strict.verdict} "
                    f"darboux_angular={report.darboux_angular.verdict}"
                )
            _write_report(command, surface, samples, report, ())
            return 0
        if isinstance(command, Generate):
            doc = read_spec(command.surface)
            if isinstance(doc, dict) and doc.get("kind") == "sampled":
                raise SpecError("generate needs a catalog or prescribed_kappa spec")
            surface = load_surface(doc)
            write_json_atomic(command.out,
                              sampled_spec_document(surface, command.samples))
            print(f"wrote {command.out}")
            return 0
        if isinstance(command, Export):
            surface = load_surface(read_spec(command.surface))
            text = export_obj(surface, command.grid_cols, command.v_min,
                              command.v_max, command.grid_rows)
            write_text_atomic(command.out, text)
            print(f"wrote {command.out}")
            return 0
        raise SpecError(f"unknown command {command!r}")
    except CylindricalDirector as exc:
        print(f"error: cylindrical surface: {exc}", file=sys.stderr)
        return 2
    except UnknownCatalogName as exc:
        print(f"error: unknown catalog surface {exc}", file=sys.stderr)
        return 1
    except (SpecError, BadParams, OutOfDomain, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: Sequence[str] | None = None) -> int:
    return run(parse_cli(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    raise SystemExit(main())
