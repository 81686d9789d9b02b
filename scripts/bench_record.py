"""Record one point of the benchmark trajectory in ``BENCH_<LABEL>.json``.

    python3 scripts/bench_record.py LABEL [--seed N]

Runs ``perfbench/run.py --workload W --seed N --seconds S --trace T`` for
every workload that ``BENCHMARK.json`` declares and T in 0 and 1, each in a
process of its own: ``run.py`` reads ``peak_rss_mb`` as the largest peak of
any child it has reaped, so under ``--workload all`` a row inherits the
peaks of the rows before it.  S is ``BENCHMARK.json``'s ``run_seconds``.

From each run it keeps the ``env`` line, the metric rows (value, unit,
direction, note, or absent) and the JSON result of the last line, and
writes them to ``BENCH_<LABEL>.json`` in the current directory.  It
refuses to overwrite an existing file, and writes nothing when a run exits
non-zero or prints no result.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_run(stdout: str) -> dict:
    """The env, metric rows and result that one ``run.py`` run printed."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("env "):
        raise ValueError("run.py output does not start with its env line")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ValueError(f"run.py output does not end with a JSON result: {lines[-1]!r}") from None
    rows, absent = {}, []
    for line in lines[1:-1]:
        fields = line.split(None, 5)
        if len(fields) == 3 and fields[2] == "absent":
            absent.append(fields[1])
        elif len(fields) >= 5:
            name, value, unit, better = fields[1:5]
            rows[name] = {"value": float(value), "unit": unit, "better": better,
                          "note": fields[5] if len(fields) == 6 else ""}
        else:
            raise ValueError(f"unreadable metric row: {line!r}")
    if set(rows) != set(result["metrics"]):
        raise ValueError(f"rows {sorted(rows)} do not match the result's metrics "
                         f"{sorted(result['metrics'])}")
    return {"env": json.loads(lines[0][len("env "):]), "rows": rows, "absent": absent,
            "result": result}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> str:
    """Standard output of one ``run.py`` run; a run that exits non-zero raises."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file: BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '.', '_' and '-'")
    out = Path(f"BENCH_{args.label}.json")
    if out.exists():
        parser.error(f"{out} exists; choose another label")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            print(f"running {workload} --trace {trace}", file=sys.stderr)
            stdout = run_workload(workload, args.seed, seconds, trace)
            runs.append({"workload": workload, "trace": trace, **parse_run(stdout)})
    record = {"label": args.label, "seed": args.seed, "seconds": seconds, "runs": runs}
    with open(out, "x", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
