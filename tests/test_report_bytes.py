"""Report, CSV and spec bytes against a value-by-value reference emitter.

``dumps_deterministic`` renders a report's sample rows from one row template
after one finiteness check of the stacked columns, and ``csv_table`` does the
same for CSV rows.  The reference below walks the document one value at a
time, with the table spelled out as one dict per row; every output must match
it byte for byte, and every non-finite value must raise the same error text.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TABULATED_LINEAR
from slantsurf import (
    FrameTable,
    SampleGrid,
    SpecError,
    catalog,
    classify_samples,
    csv_table,
    dumps_deterministic,
    frame_samples,
    load_surface,
    report_document,
    sampled_spec_document,
)
from slantsurf.cli import AUDITORS
from slantsurf.surface_io import CSV_HEADER

COLUMNS = ("u", "s1", "kappa", "kappa_prime", "sigma", "q", "h", "a", "darboux", "striction")
ROW_KEYS = ("u", "s1", "kappa", "kappa_prime", "sigma", "q", "h", "a", "W", "striction_point")


def reference_float(value: float) -> str:
    if not math.isfinite(value):
        raise SpecError(f"non-finite value {value!r} cannot be serialized")
    return format(value, ".17g")


def reference_emit(value, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(reference_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f'{pad}  "{key}": ')
            reference_emit(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
        elif all(isinstance(x, (bool, int, float)) or x is None for x in items):
            out.append("[")
            for i, item in enumerate(items):
                reference_emit(item, indent, out)
                if i + 1 < len(items):
                    out.append(", ")
            out.append("]")
        else:
            out.append("[\n")
            for i, item in enumerate(items):
                out.append(pad + "  ")
                reference_emit(item, indent + 1, out)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "]")
    elif isinstance(value, FrameTable):
        reference_emit(reference_rows(value), indent, out)
    else:
        raise TypeError(type(value).__name__)


def reference_dumps(doc: dict) -> str:
    out = []
    reference_emit(doc, 0, out)
    return "".join(out) + "\n"


def reference_rows(samples: FrameTable) -> list[dict]:
    columns = [getattr(samples, name).tolist() for name in COLUMNS]
    return [dict(zip(ROW_KEYS, row)) for row in zip(*columns)]


def reference_csv(samples: FrameTable) -> str:
    lines = [CSV_HEADER]
    for u, s1, kappa, kp, sig, *vectors in zip(*(getattr(samples, n).tolist() for n in COLUMNS)):
        fields = [u, s1, kappa, kp, sig, *(x for v in vectors for x in v)]
        lines.append(",".join(reference_float(x) for x in fields))
    return "\n".join(lines) + "\n"


def error_text(render, *args) -> str:
    with pytest.raises(SpecError) as info:
        render(*args)
    return str(info.value)


SURFACES = {
    "helicoid": lambda: catalog("helicoid"),
    "latitude_cone": lambda: catalog("latitude_cone", {"beta": 0.6}),
    "hyperboloid": lambda: catalog("hyperboloid", {"r": 1.5, "pitch": 0.7}),
    "radial_plane": lambda: catalog("radial_plane"),
    "constant_sigma": lambda: catalog("constant_sigma", {"d": 0.4}),
    "tabulated_kappa": lambda: catalog("tabulated_kappa", TABULATED_LINEAR),
    "prescribed": lambda: load_surface({
        "kind": "prescribed_kappa", "profile": {"type": "tabulated", "s1_knots": [0.0, 1.0, 2.0, 3.0],
                                                "kappa_values": [0.0, 0.8, -0.4, 0.6]},
        "alpha": 0.3}),
    "sampled": lambda: load_surface(
        sampled_spec_document(catalog("constant_sigma", {"d": 0.5}), 64)),
}


@pytest.mark.parametrize("name", SURFACES)
def test_report_and_csv_match_the_reference(name):
    surface = SURFACES[name]()
    grid = SampleGrid.uniform(surface.param_range, 64)
    samples = frame_samples(surface, grid)
    report = classify_samples(samples)
    audits = [audit(surface, grid, samples=samples, report=report) for audit in AUDITORS.values()]
    doc = report_document(surface, samples, report, audits)
    assert dumps_deterministic(doc) == reference_dumps(doc)
    assert csv_table(samples) == reference_csv(samples)
    if name != "sampled":
        spec = sampled_spec_document(surface, 64)
        assert dumps_deterministic(spec) == reference_dumps(spec)


# signed zeros, subnormals, extremes and integer-valued floats beside any finite float
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1e300, -1e300,
                     1e-300, -1e-300, 3.0, -7.0, 2.0 ** 53, 1e16]),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 3))
    values = draw(st.lists(edge_floats, min_size=20 * rows, max_size=20 * rows))
    m = np.array(values, dtype=float).reshape(rows, 20)
    return FrameTable(u=m[:, 0], s1=m[:, 1], kappa=m[:, 2], kappa_prime=m[:, 3], sigma=m[:, 4],
                      q=m[:, 5:8], h=m[:, 8:11], a=m[:, 11:14], darboux=m[:, 14:17],
                      striction=m[:, 17:20])


def table_document(table: FrameTable) -> dict:
    return {"meta": {"samples": len(table), "tol": 1e-6}, "samples": table,
            "u": table.u.tolist(), "q": table.q.tolist(),
            "mixed": [True, 0, *table.u.tolist(), -3, False, None]}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(tables())
def test_drawn_tables_match_the_reference(table):
    doc = table_document(table)
    assert dumps_deterministic(doc) == reference_dumps(doc)
    assert csv_table(table) == reference_csv(table)


def plant(table: FrameTable, row: int, column: int, value: float) -> None:
    """Set CSV column ``column`` (0 to 19) of row ``row`` in the table's arrays."""
    if column < 5:
        getattr(table, COLUMNS[column])[row] = value
    else:
        getattr(table, COLUMNS[5 + (column - 5) // 3])[row, (column - 5) % 3] = value


@settings(derandomize=True, max_examples=50, deadline=None)
@given(tables().filter(len), st.data())
def test_non_finite_values_raise_the_reference_error(table, data):
    for _ in range(data.draw(st.integers(1, 3))):
        plant(table, data.draw(st.integers(0, len(table) - 1)), data.draw(st.integers(0, 19)),
              data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    doc = table_document(table)
    assert error_text(dumps_deterministic, doc) == error_text(reference_dumps, doc)
    assert error_text(csv_table, table) == error_text(reference_csv, table)


@pytest.mark.parametrize("row, column, value", [(0, 0, math.nan), (3, 7, math.inf),
                                                 (5, 19, -math.inf)])
def test_non_finite_sample_in_a_report_names_the_value(row, column, value):
    surface = catalog("helicoid")
    samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 16))
    report = classify_samples(samples)
    table = FrameTable(**{name: getattr(samples, name).copy() for name in COLUMNS})
    plant(table, row, column, value)
    doc = report_document(surface, table, report)
    expected = f"non-finite value {value!r} cannot be serialized"
    assert error_text(dumps_deterministic, doc) == expected == error_text(reference_dumps, doc)
    assert error_text(csv_table, table) == expected == error_text(reference_csv, table)


@pytest.mark.parametrize("items", [[1.0, math.nan], [True, 2, -math.inf, None]])
def test_non_finite_list_item_raises_the_reference_error(items):
    doc = {"values": items}
    assert error_text(dumps_deterministic, doc) == error_text(reference_dumps, doc)
