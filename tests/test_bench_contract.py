"""The names the benchmark's tracer wraps resolve, with the parameters it relies on.

``perfbench/trace_child.py`` reports a metric absent when a name it wraps is
missing or has lost a listed parameter; these tests read its tables without
editing them, so a rename in the package fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def trace_child():
    sys.path.insert(0, str(PERFBENCH))
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory as checked out
    try:
        yield importlib.import_module("trace_child")
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(PERFBENCH))


def _resolves(trace_child, module_name, attr, params) -> bool:
    fn = getattr(importlib.import_module(module_name), attr, None)
    return callable(fn) and trace_child._has_params(fn, params)


def test_every_span_resolves(trace_child):
    missing = [(module, attr) for module, attr, _, params, _ in trace_child.SPANS
               if not _resolves(trace_child, module, attr, params)]
    assert missing == []


def test_every_audit_takes_the_traced_parameters(trace_child):
    from slantsurf.cli import AUDITORS

    missing = [audit_id for audit_id in trace_child.AUDIT_IDS
               if not (audit_id in AUDITORS
                       and trace_child._has_params(AUDITORS[audit_id], trace_child.AUDIT_PARAMS))]
    assert missing == []


def test_fd_jet_resolves(trace_child):
    assert _resolves(trace_child, *trace_child.FD_JET)
