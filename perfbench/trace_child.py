"""Traced in-process runner: ``python trace_child.py PLAN OUT``.

Runs each command of the plan in this process through
``slantsurf.cli.run(parse_cli(argv))`` twice, once plain and once with spans
around the calls into each slantsurf module, alternating which goes first.
Spans are wrapped around the functions by the names ``slantsurf.cli``,
``slantsurf.surface_io``, ``slantsurf.generators`` and ``slantsurf.slant``
resolve at call time, and are removed again after each traced run; nothing
in the package changes.  A name that is missing, or whose parameters no
longer include the ones listed here, is not wrapped and its metrics are
reported absent.  Spans stay in memory and are written to OUT at the end.

PLAN is JSON: {"seconds": s, "commands": [[argv, [output paths]], ...]}.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import sys
from pathlib import Path
from time import perf_counter

from oracle import AUDIT_IDS, digest

# (module, attribute, span, parameters the tracer relies on, measure)
SPANS = [
    ("slantsurf.cli", "load_surface", "surface_io.load", ("doc",), "jets"),
    ("slantsurf.generators", "integrate_frame", "generators.integrate", ("config",), "rk4"),
    ("slantsurf.surface_io", "integrate_frame", "generators.integrate", ("config",), "rk4"),
    ("slantsurf.generators", "build_surface", "generators.build", ("frames", "config"), None),
    ("slantsurf.surface_io", "build_surface", "generators.build", ("frames", "config"), None),
    ("slantsurf.cli", "frame_samples", "frame.frame_samples", ("surface", "grid"), "grid"),
    ("slantsurf.cli", "classify_samples", "slant.classify", ("samples",), None),
    ("slantsurf.slant", "classify_samples", "slant.classify", ("samples",), None),
    ("slantsurf.cli", "report_document", "surface_io.report_document",
     ("surface", "samples", "report"), None),
    ("slantsurf.surface_io", "dumps_deterministic", "surface_io.dumps", ("doc",), None),
    ("slantsurf.cli", "write_json_atomic", "surface_io.write", ("path", "doc"), None),
    ("slantsurf.cli", "write_text_atomic", "surface_io.write", ("path", "text"), "bytes"),
    ("slantsurf.surface_io", "write_text_atomic", "surface_io.write", ("path", "text"), "bytes"),
    ("slantsurf.cli", "csv_table", "surface_io.csv", ("samples",), None),
    ("slantsurf.cli", "sampled_spec_document", "surface_io.sampled_spec",
     ("surface", "count"), None),
    ("slantsurf.cli", "export_obj", "surface_io.export_obj", ("surface", "grid_cols"), None),
]
AUDIT_PARAMS = ("surface", "grid", "samples")
FD_JET = ("slantsurf.surface_io", "fd_jet", ("curve", "u0", "step"))

# metric names each measure produces, reported absent when it cannot run
MEASURED = {
    "jets": "frame.jet_calls",
    "rk4": "generators.rk4_steps",
    "grid": "frame.us_per_sample",
    "bytes": "surface_io.bytes_written",
}


def _has_params(fn, names) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return all(name in params for name in names)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Spans and counts of one traced invocation, plus the wrapper install."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _measure(self, kind: str, args, kwargs, result):
        if kind == "jets":
            return self._counting_surface(result)
        if kind == "rk4":
            self.count("generators.rk4_steps", len(result) - 1)
        elif kind == "grid":
            self.count("frame.samples", _arg(args, kwargs, 1, "grid").count)
        elif kind == "bytes":
            self.count("surface_io.bytes_written",
                       len(_arg(args, kwargs, 1, "text").encode("utf-8")))
        return result

    def _counting_surface(self, surface):
        """The same surface with its jet callables counted per open span."""
        def counted(fn):
            def jet(u):
                top = self.spans[self._stack[-1]][0] if self._stack else "none"
                self.count("jets@" + top)
                return fn(u)
            return jet

        return dataclasses.replace(surface, base_curve=counted(surface.base_curve),
                                   director=counted(surface.director))

    def _span(self, name: str, fn, measure: str | None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = start, perf_counter()
                self._stack.pop()
            if measure is not None and MEASURED[measure] not in self.absent:
                try:
                    result = self._measure(measure, args, kwargs, result)
                except Exception:  # an API change must not change the run
                    self.absent.add(MEASURED[measure])
            return result
        return wrapper

    def _install(self, owner, key, fn, wrap) -> None:
        # one wrapper per function, whichever module's name reaches it
        wrapper = self._wrappers.setdefault(id(fn), wrap(fn))
        self._restore.append((owner, key, fn))
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def install(self) -> None:
        for module_name, attr, name, params, measure in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn) or not _has_params(fn, params):
                self.absent.add(name + "_s")
                if measure is not None:
                    self.absent.add(MEASURED[measure])
                continue
            self._install(module, attr, fn, lambda f, n=name, m=measure: self._span(n, f, m))
        if "frame.frame_samples_s" in self.absent:  # jet calls are counted inside it
            self.absent.add("frame.jet_calls")

        cli = importlib.import_module("slantsurf.cli")
        auditors = getattr(cli, "AUDITORS", {})
        for audit_id in AUDIT_IDS:
            fn = auditors.get(audit_id)
            if not callable(fn) or not _has_params(fn, AUDIT_PARAMS):
                self.absent.add(f"slant.audit.{audit_id}_s")
                continue
            self._install(auditors, audit_id, fn,
                          lambda f, n=f"slant.audit.{audit_id}": self._span(n, f, None))

        module_name, attr, params = FD_JET
        fn = getattr(importlib.import_module(module_name), attr, None)
        if not callable(fn) or not _has_params(fn, params):
            self.absent.add("geometry.fd_jet_calls")
        else:
            def counting(f):
                def wrapper(*args, **kwargs):
                    self.count("geometry.fd_jet_calls")
                    return f(*args, **kwargs)
                return wrapper
            self._install(importlib.import_module(module_name), attr, fn, counting)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._restore.clear()


def _run(cli, argv: list[str], tracer: Tracer | None) -> tuple[int, float, str]:
    if tracer is not None:
        tracer.install()
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            command = cli.parse_cli(argv)
            start = perf_counter()
            code = cli.run(command)
            return code, perf_counter() - start, stdout.getvalue()
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(plan_path: str, out_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import slantsurf.cli as cli

    invocations = []
    begin = perf_counter()
    cycle = 0
    while cycle == 0 or perf_counter() - begin < plan["seconds"]:
        for argv, outputs in plan["commands"]:
            record: dict = {"argv": argv}
            for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
                tracer = Tracer() if traced else None
                code, seconds, stdout = _run(cli, argv, tracer)
                side = "traced" if traced else "plain"
                record[side] = {"code": code, "seconds": seconds, "stdout": stdout,
                                "digest": digest(outputs) if code == 0 else None}
                if tracer is not None:
                    record.update(spans=tracer.spans, counts=tracer.counts,
                                  absent=sorted(tracer.absent))
            invocations.append(record)
        cycle += 1
    Path(out_path).write_text(json.dumps({"invocations": invocations}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
