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
from pathlib import Path
from typing import Sequence

from .frame import SampleGrid, frame_samples
from .generators import WORK_LIMIT
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

__all__ = ["parse_cli", "run", "main"]

DEFAULT_TOL = 1e-6
SAMPLED_TOL = 1e-3
DEFAULT_SAMPLES = 512

AUDITORS = {
    "2.1": verify_theorem_2_1,
    "3.1": verify_theorem_3_1,
    "cor3.1": verify_corollary_3_1,
    "3.2": verify_theorem_3_2,
    "3.3-3.4": verify_theorems_3_3_3_4,
}
THEOREM_IDS = (*AUDITORS, "all")


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
    if cols * rows > WORK_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must have at most {WORK_LIMIT} vertices (COLS x ROWS), got {text!r}")
    return cols, rows


def _v_range(text: str) -> tuple[float, float]:
    head, _, tail = text.partition(":")
    try:
        lo, hi = float(head), float(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"expected finite MIN < MAX, got {text!r}")
    return lo, hi


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


def _count_from(minimum: int):
    return _value_where(int, lambda n: minimum <= n <= WORK_LIMIT,
                        f"an integer in [{minimum}, {WORK_LIMIT}]")


_tol = _value_where(float, lambda x: math.isfinite(x) and x > 0.0, "finite and > 0")
_angle_tol = _value_where(float, lambda x: 0.0 <= x < 1.0, "in [0, 1)")


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--surface", required=True, help="surface spec JSON path")
    sub.add_argument("--samples", type=_count_from(MIN_AXIS_SAMPLES),
                     default=DEFAULT_SAMPLES, help="number of u samples (default %(default)s)")
    sub.add_argument("--tol", type=_tol, default=None,
                     help="tolerance of the classification and of every audit (default: "
                          "1e-6, and each audit's own; 1e-3 for sampled specs)")
    # string defaults go through the type converter, so the help shows them as typed
    sub.add_argument("--angle-tol", type=_angle_tol, default="1e-3",
                     help="right-angle exclusion margin (default %(default)s)")
    sub.add_argument("--out", default="report.json", help="report path")
    sub.add_argument("--csv", action="store_true",
                     help="also write the sample table as CSV next to the report")


def parse_cli(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv``; ``command`` on the result names the subcommand."""
    parser = _Parser(prog="slant",
                     description="slant classification of ruled surfaces")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_analysis_flags(subs.add_parser("analyze", help="sample and report"))
    _add_analysis_flags(subs.add_parser("classify", help="answer the slant questions"))

    gen = subs.add_parser("generate", help="tabulate a spec into a sampled spec")
    gen.add_argument("--surface", required=True, help="catalog or prescribed_kappa spec")
    gen.add_argument("--samples", type=_count_from(MIN_SAMPLED_ROWS),
                     default=DEFAULT_SAMPLES, help="rows to tabulate (default %(default)s)")
    gen.add_argument("--out", default="surface.json", help="output spec path")

    ver = subs.add_parser("verify", help="run numerical audits")
    _add_analysis_flags(ver)
    ver.add_argument("--theorem", choices=THEOREM_IDS, default="all",
                     help="which audit to run (default %(default)s)")

    exp = subs.add_parser("export", help="mesh the strip as OBJ")
    exp.add_argument("--surface", required=True, help="surface spec JSON path")
    exp.add_argument("--grid", type=_grid, default="64x8",
                     help="mesh resolution COLSxROWS (default %(default)s)")
    exp.add_argument("--v-range", type=_v_range, default="-1:1",
                     help="ruling extent MIN:MAX (default %(default)s)")
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
    if getattr(args, "csv", False) and Path(args.out).suffix == ".csv":
        subs.choices[args.command].error(
            f"--csv would overwrite the report {args.out!r}: give --out another suffix")
    return args


def _analysis_report(args: argparse.Namespace):
    """The surface, grid, samples and classification, plus the tol that replaces
    every audit's own default: ``--tol``, else SAMPLED_TOL for sampled specs,
    else None."""
    surface = load_surface(read_spec(args.surface))
    override = args.tol
    if override is None and surface.provenance["kind"] == "sampled":
        override = SAMPLED_TOL
    grid = SampleGrid.uniform(surface.param_range, args.samples)
    samples = frame_samples(surface, grid)
    report = classify_samples(samples, override or DEFAULT_TOL, args.angle_tol)
    return surface, grid, samples, report, override


def _run_analysis(args: argparse.Namespace) -> None:
    """analyze, classify and verify: stdout lines appear only once the report is on disk."""
    surface, grid, samples, report, override = _analysis_report(args)
    lines, records = [], []
    if args.command == "classify":
        names = ("q_slant", "h_slant", "a_slant", "darboux_strict", "darboux_angular")
        lines.append(" ".join(f"{name}={getattr(report, name).verdict}" for name in names))
    elif args.command == "verify":
        ids = list(AUDITORS) if args.theorem == "all" else [args.theorem]
        # every audit reads this one classification of the samples
        kwargs = {"samples": samples, "report": report}
        if override is not None:
            kwargs["tol"] = override
        for tid in ids:
            record = AUDITORS[tid](surface, grid, **kwargs)
            records.append(record)
            state = "passed" if record.passed else (
                "not applicable" if record.passed is None else "FAILED")
            lines.append(f"audit {tid}: {state}")
    write_json_atomic(args.out, report_document(surface, samples, report, records))
    print(*lines, f"wrote {args.out}", sep="\n")
    if args.csv:
        csv_path = Path(args.out).with_suffix(".csv")
        write_text_atomic(csv_path, csv_table(samples))
        print(f"wrote {csv_path}")


def _run_generate(args: argparse.Namespace) -> None:
    doc = read_spec(args.surface)
    if isinstance(doc, dict) and doc.get("kind") == "sampled":
        raise SpecError("generate needs a catalog or prescribed_kappa spec")
    write_json_atomic(args.out, sampled_spec_document(load_surface(doc), args.samples))
    print(f"wrote {args.out}")


def _run_export(args: argparse.Namespace) -> None:
    surface = load_surface(read_spec(args.surface))
    cols, rows = args.grid
    write_text_atomic(args.out, export_obj(surface, cols, *args.v_range, rows))
    print(f"wrote {args.out}")


_HANDLERS = {
    "analyze": _run_analysis,
    "classify": _run_analysis,
    "verify": _run_analysis,
    "generate": _run_generate,
    "export": _run_export,
}


def run(args: argparse.Namespace) -> int:
    """Execute the subcommand ``parse_cli`` returned; returns the process exit code."""
    try:
        _HANDLERS[args.command](args)
        return 0
    except CylindricalDirector as exc:
        print(f"error: cylindrical surface: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: Sequence[str] | None = None) -> int:
    return run(parse_cli(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    raise SystemExit(main())
