"""slantsurf benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

End-to-end run (``--trace 0``): one client in a closed loop drives the CLI
contract only, ``python -m slantsurf.cli <subcommand>`` with
``PYTHONPATH=<checkout>/src``, one invocation at a time, through whole cycles
of the workload's commands: as many as fill ``--seconds`` on the reference
machine, and at least two, so that every command runs twice and its output
bytes can be compared.  Every invocation's outputs are checked against the
hand-written oracle in ``oracle.py``.

Traced run (``--trace 1``): a child process runs the same commands in-process
(``trace_child.py``) with spans around the calls into each slantsurf module,
and fresh interpreters measure the import.  Per-layer values are per
invocation that entered the layer; see README.md.

``--workload all`` runs every workload both ways and prints every metric by
name, unit and direction, one row per workload and metric.

The last line of standard output is the JSON result.  The run exits 2
without a result when the checkout holds no ``src/slantsurf``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle
from oracle import Outcome, Surface

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_CYCLES = 2
# start no further cycle that would, at the mean cycle time so far, end
# after this many times --seconds (a slow machine then makes fewer cycles)
OVERRUN_LIMIT = 1.3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60
TRACE_TIMEOUT_S = 150
LARGE_N = 4096
SMALL_N = 512
README_D = 0.5  # the README quick start's constant_sigma; fixed, never seeded
GRID = (64, 8)
V_RANGE = (-1.0, 1.0)

IMPORT_PROBE = (
    "import json, sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import slantsurf.cli\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps([t, len(sys.modules) - n]))\n"
)


@dataclass
class Step:
    """One CLI invocation of a workload and the check of what it wrote."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[str], Outcome]


# ---------------------------------------------------------------------------
# workloads


def _spec_file(tmp: Path, surface: Surface) -> Path:
    path = tmp / f"{surface.stem}_spec.json"
    path.write_text(json.dumps(surface.spec), encoding="utf-8")
    return path


def _report_step(tmp: Path, command: str, spec: Path, surface: Surface, samples: int,
                 csv: bool = False) -> Step:
    out = tmp / f"{surface.stem}_{command}.json"
    argv = [command, "--surface", str(spec), "--samples", str(samples), "--out", str(out)]
    outputs = [out]
    if csv:
        argv.append("--csv")
        outputs.append(out.with_suffix(".csv"))

    def check(stdout: str) -> Outcome:
        outcome = oracle.check_report(out, surface, samples, audits=command == "verify")
        if command == "classify":
            outcome.problems += oracle.check_verdict_line(stdout, surface.verdicts)
        if csv:
            outcome.problems += oracle.check_csv(outputs[1], samples)
        return outcome

    return Step(argv, outputs, check)


def _export_step(tmp: Path, spec: Path, surface: Surface) -> Step:
    out = tmp / f"{surface.stem}.obj"
    cols, rows = GRID
    argv = ["export", "--surface", str(spec), "--grid", f"{cols}x{rows}", "--out", str(out)]
    return Step(argv, [out],
                lambda stdout: Outcome(oracle.check_obj(out, surface, cols, rows, V_RANGE)))


def _roundtrip_steps(tmp: Path, surface: Surface, rows: int) -> list[Step]:
    sampled = tmp / f"{surface.stem}_sampled.json"
    argv = ["generate", "--surface", str(_spec_file(tmp, surface)), "--samples", str(rows),
            "--out", str(sampled)]
    generate = Step(argv, [sampled],
                    lambda stdout: Outcome(oracle.check_sampled_spec(sampled, rows)))
    verify = _report_step(tmp, "verify", sampled,
                          oracle.sampled_from(surface, surface.stem + "_sampled"), rows)
    return [generate, verify]


def cli_small(rng: random.Random, tmp: Path) -> list[Step]:
    surfaces = [
        oracle.helicoid(),
        oracle.latitude_cone(rng.uniform(0.3, 1.2)),
        oracle.hyperboloid(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
    ]
    steps = []
    for surface in surfaces:
        spec = _spec_file(tmp, surface)
        steps += [
            _report_step(tmp, "classify", spec, surface, SMALL_N),
            _report_step(tmp, "analyze", spec, surface, SMALL_N, csv=True),
            _export_step(tmp, spec, surface),
        ]
    return steps


def verify_large(rng: random.Random, tmp: Path) -> list[Step]:
    # d stays in [0.2, 0.5] so the |d s1| <= 0.95 clamp never clips (-1.8, 1.8)
    surfaces = [
        oracle.constant_sigma(rng.uniform(0.2, 0.5)),
        oracle.tabulated_linear(),
        oracle.prescribed_constant_sigma(rng.uniform(0.2, 0.5), rng.uniform(0.0, 0.5)),
    ]
    return [_report_step(tmp, "verify", _spec_file(tmp, s), s, LARGE_N) for s in surfaces]


def sampled_roundtrip(rng: random.Random, tmp: Path) -> list[Step]:
    readme = oracle.constant_sigma(README_D, "readme")
    seeded = oracle.constant_sigma(rng.uniform(0.2, 0.5), "seeded")
    return _roundtrip_steps(tmp, readme, SMALL_N) + _roundtrip_steps(tmp, seeded, LARGE_N)


WORKLOADS = {
    "cli_small": cli_small,
    "verify_large": verify_large,
    "sampled_roundtrip": sampled_roundtrip,
}
# Wall seconds of one cycle on the reference machine (2-core Xeon, Python
# 3.11).  A run makes round(seconds / this) cycles, so the invocation count,
# and with it the tail percentile, depends on --seconds only and is the same
# for every commit compared.
NOMINAL_CYCLE_S = {"cli_small": 9.6, "verify_large": 7.5, "sampled_roundtrip": 9.5}


# ---------------------------------------------------------------------------
# running


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports as users see them, from bytecode
    return env


def _python(args: list[str], tmp: Path, timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    start = perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=tmp, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    return done, perf_counter() - start


def _invoke(step: Step, tmp: Path) -> tuple[Outcome, float]:
    try:
        done, wall = _python(["-m", "slantsurf.cli", *step.argv], tmp, CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome([f"{step.argv[0]}: no exit within {CHILD_TIMEOUT_S} s"]), float(CHILD_TIMEOUT_S)
    if done.returncode != 0:
        return Outcome([f"{step.argv[0]}: exit {done.returncode}: {done.stderr.strip()[-300:]}"]), wall
    return step.check(done.stdout), wall


def setup_times(tmp: Path) -> list[float]:
    """Fresh-interpreter wall time to ``import slantsurf.cli``; the first,
    which may compile bytecode, is not kept."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        done, wall = _python(["-c", "import slantsurf.cli"], tmp, CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"import slantsurf.cli failed: {done.stderr.strip()[-300:]}")
        if i:
            times.append(wall)
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND values above it (the
    minimum when there are too few), as (value, percentile)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * index / max(1, len(ordered) - 1)


def end_to_end(steps: list[Step], cycles: int, seconds: int, tmp: Path) -> dict:
    setup = statistics.median(setup_times(tmp))
    walls: list[float] = []
    outcomes: list[Outcome] = []
    first_digest: dict[int, str] = {}
    begin = perf_counter()
    for cycle in range(cycles):
        elapsed = perf_counter() - begin
        if cycle >= MIN_CYCLES and elapsed * (cycle + 1) / cycle > OVERRUN_LIMIT * seconds:
            break
        for i, step in enumerate(steps):
            outcome, wall = _invoke(step, tmp)
            if not outcome.problems:
                digest = oracle.digest(step.outputs)
                if first_digest.setdefault(i, digest) != digest:
                    outcome.problems.append(f"{step.argv[0]}: output bytes differ between runs")
            walls.append(wall)
            outcomes.append(outcome)

    failed = sum(1 for o in outcomes if o.problems)
    applicable = sum(o.audits_applicable for o in outcomes)
    passed = sum(o.audits_passed for o in outcomes)
    errors = [o.sigma_err for o in outcomes if o.sigma_err is not None]
    tail_value, tail_pct = tail(walls)
    return {
        "problems": [p for o in outcomes for p in o.problems],
        "attempted": len(outcomes),
        "failed": failed,
        "notes": {"wall_tail_s": f"p{tail_pct:.0f} of {len(walls)} invocations",
                  "wall_p50_s": f"of {len(walls)} invocations",
                  "setup_s": f"median of {SETUP_REPEATS}"},
        "metrics": {
            "wall_p50_s": statistics.median(walls),
            "wall_tail_s": tail_value,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "op_ok_frac": (len(outcomes) - failed) / len(outcomes),
            # no audits ran (cli_small): nothing failed, reads 1
            "audit_pass_frac": passed / applicable if applicable else 1.0,
            "sigma_err_max": max(errors, default=oracle.SIGMA_ERR_FLOOR),
        },
    }


def import_layer(tmp: Path) -> dict[str, float]:
    """import.* metrics, medians over fresh ``-X importtime`` interpreters."""
    own, scipy_interp, modules = [], [], []
    for _ in range(IMPORT_REPEATS):
        done, _ = _python(["-X", "importtime", "-c", IMPORT_PROBE], tmp, CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr.strip()[-300:]}")
        seconds, loaded = json.loads(done.stdout.splitlines()[-1])
        own.append(seconds)
        modules.append(loaded)
        # "import time: self [us] | cumulative | package"; 0 when never imported
        cumulative = [int(line.split("|")[1]) for line in done.stderr.splitlines()
                      if line.startswith("import time:") and line.split("|")[-1].strip()
                      == "scipy.interpolate"]
        scipy_interp.append(cumulative[0] / 1e6 if cumulative else 0.0)
    return {
        "import.slantsurf_s": statistics.median(own),
        "import.scipy_interpolate_s": statistics.median(scipy_interp),
        "import.modules_loaded": statistics.median(modules),
    }


COUNTS = ("generators.rk4_steps", "geometry.fd_jet_calls", "surface_io.bytes_written")


def span_layers(records: list[dict]) -> dict[str, float]:
    """Per-layer values from the traced invocations.

    A span's self time is its duration less the time of its direct children.
    Each time or count is averaged over the invocations that entered it, so
    it reads the same whatever else the workload mixes in, and 0 when no
    invocation did.
    """
    totals: dict[str, float] = {}
    entered: dict[str, int] = {}
    frame_total = samples_total = 0.0
    for rec in records:
        spans = rec["spans"]
        inner = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        own: dict[str, float] = {}
        for (name, start, end, _), child in zip(spans, inner):
            own[name + "_s"] = own.get(name + "_s", 0.0) + (end - start) - child
        own["slant.classify_calls"] = sum(1 for s in spans if s[0] == "slant.classify")
        own["frame.jet_calls"] = rec["counts"].get("jets@frame.frame_samples", 0)
        for key in COUNTS:
            own[key] = rec["counts"].get(key, 0)
        frame_total += own.get("frame.frame_samples_s", 0.0)
        samples_total += rec["counts"].get("frame.samples", 0)
        for key, value in own.items():
            if value:
                totals[key] = totals.get(key, 0.0) + value
                entered[key] = entered.get(key, 0) + 1
    values = {key: totals[key] / entered[key] for key in totals}
    values["frame.us_per_sample"] = frame_total / samples_total * 1e6 if samples_total else 0.0
    plain = [rec["plain"]["seconds"] for rec in records]
    traced = [rec["traced"]["seconds"] for rec in records]
    values["cli.run_s"] = statistics.fmean(plain)
    values["tracing.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    return values


def traced(steps: list[Step], seconds: int, tmp: Path, layer_names) -> dict:
    metrics = import_layer(tmp)
    plan = tmp / "trace_plan.json"
    out = tmp / "trace_spans.json"
    plan.write_text(json.dumps({
        "seconds": seconds,
        "commands": [[step.argv, [str(p) for p in step.outputs]] for step in steps],
    }), encoding="utf-8")
    done, _ = _python([str(HERE / "trace_child.py"), str(plan), str(out)], tmp, TRACE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"traced run failed: {done.stderr.strip()[-600:]}")
    records = json.loads(out.read_text(encoding="utf-8"))["invocations"]

    problems = []
    for rec in records:
        plain, with_spans = rec["plain"], rec["traced"]
        if plain["code"] != 0 or with_spans["code"] != 0:
            problems.append(f"{rec['argv'][0]}: exit {plain['code']} / {with_spans['code']}")
        elif plain["digest"] != with_spans["digest"]:
            problems.append(f"{rec['argv'][0]}: tracing changed the output bytes")
    # the files now hold the last run of each command; check them once
    last = {tuple(rec["argv"]): rec["traced"]["stdout"] for rec in records}
    for step in steps:
        problems += step.check(last[tuple(step.argv)]).problems

    absent = sorted({name for rec in records for name in rec["absent"]})
    metrics.update(span_layers(records))
    for name in layer_names:  # layers no invocation entered
        metrics.setdefault(name, 0.0)
    return {
        "problems": problems,
        "attempted": len(records),
        "failed": len(problems),
        "absent": absent,
        "notes": {},
        "metrics": {k: v for k, v in metrics.items() if k not in absent},
    }


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "slantsurf").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())

    def version(name: str) -> str | None:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
            "src_sha256": src.hexdigest()}


def rows(workload: str, result: dict, catalogue: dict) -> list[str]:
    lines = []
    for name, value in result["metrics"].items():
        unit, better = catalogue[name]
        note = result["notes"].get(name, "")
        lines.append(f"{workload:<18} {name:<32} {value:>14.6g} {unit:<8} {better:<7} {note}".rstrip())
    for name in result.get("absent", []):
        lines.append(f"{workload:<18} {name:<32} {'absent':>14}")
    return lines


def run_one(workload: str, seed: int, seconds: int, trace: bool, benchmark: dict) -> dict:
    section = "per_layer" if trace else "end_to_end"
    catalogue = {m["name"]: (m["unit"], m["better"]) for m in benchmark[section]}
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=temp_root))
    try:
        steps = WORKLOADS[workload](random.Random(seed), tmp)
        if trace:
            result = traced(steps, seconds, tmp, catalogue)
        else:
            cycles = max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S[workload]))
            result = end_to_end(steps, cycles, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            temp_root.rmdir()
        except OSError:
            pass
    for problem in result["problems"][:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    if result.get("absent"):
        print(f"absent layer metrics: {', '.join(result['absent'])}", file=sys.stderr)
    if set(result["metrics"]) | set(result.get("absent", [])) != set(catalogue):
        raise RuntimeError(f"measured {sorted(result['metrics'])}, BENCHMARK.json "
                           f"declares {sorted(catalogue)}")
    result["metrics"] = {k: result["metrics"][k] for k in catalogue if k in result["metrics"]}
    for line in rows(workload, result, catalogue):
        print(line)
    result["catalogue"] = catalogue
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slantsurf" / "cli.py").is_file():
        print(f"no slantsurf sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("env " + json.dumps(environment()))

    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_one(workload, args.seed, args.seconds, trace, benchmark)
                ok = ok and not result["failed"]
        return 0 if ok else 1

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), benchmark)
    catalogue = result["catalogue"]
    print(json.dumps({
        "correct": not result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": catalogue[name][0]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
