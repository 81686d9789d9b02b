"""Peak RSS and wall time of each benchmark command, for two source trees.

    python3 scripts/command_peaks.py PARENT_SRC CHANGE_SRC [--workload W] [--seed N] [--runs K]

Each SRC is a directory holding the ``slantsurf`` package (a checkout's
``src``).  The commands are the ones ``perfbench/run.py`` runs: its own
workload functions build them from ``--seed``, in one temporary directory
per tree.  ``held_out`` adds ``verify`` runs that no workload makes
(``--samples`` 1024 and 8192, and the unevenly tabulated sampled cone of
``compare_outputs.py``); ``all``, the default, runs every workload.

Every command runs ``--runs`` times per tree, the two trees taking turns
command by command and going first in alternate runs.  Each run starts from a
small launcher interpreter that forks, execs ``python -m slantsurf.cli`` and
reads the child's ``ru_maxrss`` from ``wait4``.  A child's peak starts from
the resident size of the process that forked it, and ``run.py`` itself grows
to about 33 MB, so ``run.py`` cannot show a command's peak below that; from
the launcher, a child that runs ``/bin/true`` reads 4.9 MB.  Prints, per
command and tree, the minimum, median and maximum peak in MB and wall time
in seconds, then the change in median.  Exits 1 if a command fails in
either tree.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
import compare_outputs  # noqa: E402
import run as bench  # noqa: E402

# forks and execs the command, then prints: exit code, ru_maxrss in KiB, wall seconds
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if not pid:
    try:
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - start)
"""


def held_out(rng: random.Random, tmp: Path) -> list[bench.Step]:
    """``verify`` at sample counts, and on a sampled table, that no workload uses."""
    specs = {"sigma": {"kind": "catalog", "name": "constant_sigma", "params": {"d": 0.5}},
             "cone_uneven": compare_outputs.SPECS["cone_uneven.json"]}
    steps = []
    for stem, samples in (("sigma", 1024), ("sigma", 8192), ("cone_uneven", 4096)):
        spec, out = tmp / f"{stem}_spec.json", tmp / f"{stem}_{samples}_verify.json"
        spec.write_text(json.dumps(specs[stem]), encoding="utf-8")
        argv = ["verify", "--surface", str(spec), "--samples", str(samples), "--out", str(out)]
        steps.append(bench.Step(argv, [out], check=None))
    return steps


WORKLOADS = {**bench.WORKLOADS, "held_out": held_out}


def label(argv: list[str]) -> str:
    """A command's subcommand, spec file stem and remaining options, without paths."""
    words = [argv[0], Path(argv[argv.index("--surface") + 1]).stem.removesuffix("_spec")]
    rest = iter(argv[1:])
    for word in rest:
        if word in ("--surface", "--out"):
            next(rest)
        else:
            words.append(word)
    return " ".join(words)


def launch(src: str, argv: list[str], cwd: Path) -> tuple[float, float]:
    """Peak RSS in MB and wall seconds of one ``slant`` command run from the launcher."""
    env = {**bench.child_env(), "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", LAUNCHER, sys.executable, "-m", "slantsurf.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=bench.CHILD_TIMEOUT_S)
    lines = done.stdout.splitlines()
    code, maxrss, wall = lines[-1].split() if lines else ("launcher failed", 0, 0)
    if done.returncode != 0 or code != "0":
        raise RuntimeError(f"{label(argv)} under {src}: exit {code}: {done.stderr.strip()[-300:]}")
    return int(maxrss) / 1024.0, float(wall)


def spread(values: list[float], digits: int) -> str:
    return " ".join(f"{v:.{digits}f}" for v in (min(values), statistics.median(values),
                                                 max(values)))


def measure(trees: list[str], workload: str, seed: int, runs: int) -> list[str]:
    """The report lines for one workload: every command ``runs`` times per tree."""
    tmps = [Path(tempfile.mkdtemp(prefix=f"{workload}-")) for _ in trees]
    try:
        plans = [WORKLOADS[workload](random.Random(seed), tmp) for tmp in tmps]
        for src, tmp in zip(trees, tmps):  # compile each tree's bytecode outside the runs
            subprocess.run([sys.executable, "-c", "import slantsurf.cli"], cwd=tmp, check=True,
                           env={**bench.child_env(), "PYTHONPATH": src})
        peaks = [[[] for _ in plans[0]] for _ in trees]
        walls = [[[] for _ in plans[0]] for _ in trees]
        for run in range(runs):
            order = [0, 1] if run % 2 == 0 else [1, 0]
            for i in range(len(plans[0])):
                for t in order:
                    peak, wall = launch(trees[t], plans[t][i].argv, tmps[t])
                    peaks[t][i].append(peak)
                    walls[t][i].append(wall)
    finally:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)
    lines = []
    for i, step in enumerate(plans[0]):
        name = f"{workload:<18} {label(step.argv):<42}"
        for t, tree in enumerate(("parent", "change")):
            lines.append(f"{name} {tree:<6} peak_mb {spread(peaks[t][i], 2)}  "
                         f"wall_s {spread(walls[t][i], 3)}")
        rise = statistics.median(peaks[1][i]) - statistics.median(peaks[0][i])
        slower = statistics.median(walls[1][i]) - statistics.median(walls[0][i])
        lines.append(f"{name} delta  peak_mb {rise:+.2f}  wall_s {slower:+.3f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = [str(Path(src).resolve()) for src in (args.parent_src, args.change_src)]
    for src in trees:
        if not (Path(src) / "slantsurf" / "cli.py").is_file():
            parser.error(f"no slantsurf package under {src}")
    print(f"{'workload':<18} {'command':<42} {'tree':<6} peak_mb min median max  "
          "wall_s min median max")
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            for line in measure(trees, workload, args.seed, args.runs):
                print(line, flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
