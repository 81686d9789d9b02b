"""Spec parsing, deterministic serialization, tables, and OBJ meshing."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from slantsurf import (
    BadParams,
    SampleGrid,
    SpecError,
    catalog,
    classify_samples,
    csv_table,
    dumps_deterministic,
    export_obj,
    frame_samples,
    load_surface,
    read_spec,
    report_document,
    sampled_spec_document,
    write_json_atomic,
    write_text_atomic,
)
from slantsurf.geometry import cross, dot, norm

TABULATED = {"s1_knots": [0.0, 1.0, 2.0, 3.0], "kappa_values": [0.0, 0.8, -0.4, 0.6]}
VERDICTS = ("q_slant", "h_slant", "a_slant", "darboux_strict", "darboux_angular")


class TestDumps:
    def test_floats_round_trip_at_17_digits(self):
        text = dumps_deterministic({"x": 0.1, "y": 1.0, "z": 4.442882938158366})
        assert '"x": 0.10000000000000001' in text
        assert '"y": 1' in text
        assert '"z": 4.4428829381583661' in text
        assert json.loads(text) == {"x": 0.1, "y": 1.0, "z": 4.442882938158366}

    def test_bool_not_rendered_as_int(self):
        text = dumps_deterministic({"flag": True, "count": 1})
        assert '"flag": true' in text
        assert '"count": 1' in text

    def test_key_order_is_insertion_order(self):
        text = dumps_deterministic({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_scalar_lists_stay_on_one_line(self):
        text = dumps_deterministic({"v": [1.0, 2.0, 3.0]})
        assert "[1, 2, 3]" in text

    def test_non_finite_rejected(self):
        with pytest.raises(SpecError):
            dumps_deterministic({"x": math.inf})

    def test_output_parses_as_json(self):
        doc = {"a": [1, 2.5, True, None], "b": {"nested": ["x", -0.0]}, "c": "s"}
        assert json.loads(dumps_deterministic(doc)) == doc


class TestLoadSurface:
    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            load_surface({"kind": "nurbs"})
        with pytest.raises(SpecError):
            load_surface({})
        with pytest.raises(SpecError):
            load_surface([])

    def test_catalog_kind(self):
        surface = load_surface(
            {"kind": "catalog", "name": "latitude_cone", "params": {"beta": 0.5}})
        assert surface.provenance["name"] == "latitude_cone"

    def test_catalog_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            load_surface({"kind": "catalog", "name": "helicoid", "extra": 1})

    def test_prescribed_kind(self):
        surface = load_surface(
            {
                "kind": "prescribed_kappa",
                "profile": {"type": "constant_sigma", "d": 0.5},
                "s1_range": [-1.8, 1.8],
                "alpha": 0.0,
                "step": 0.01,
            }
        )
        assert surface.param_range == (-1.8, 1.8)
        assert surface.provenance["kind"] == "prescribed_kappa"

    def test_prescribed_profile_validation(self):
        base = {"kind": "prescribed_kappa"}
        with pytest.raises(SpecError):
            load_surface({**base, "profile": {"type": "mystery"}})
        with pytest.raises(SpecError):
            load_surface({**base, "profile": {"type": "constant_sigma"}})
        with pytest.raises(SpecError):
            load_surface({**base, "profile": {"type": "constant", "kappa0": 1.0},
                          "s1_range": [2.0, 1.0]})

    def test_tabulated_range_must_match_knots(self):
        doc = {
            "kind": "prescribed_kappa",
            "profile": {"type": "tabulated", "s1_knots": [0.0, 1.5, 3.0],
                        "kappa_values": [0.0, 1.5, 3.0]},
            "step": 0.01,
        }
        assert load_surface(doc).param_range == (0.0, 3.0)
        with pytest.raises(SpecError):
            load_surface({**doc, "s1_range": [0.0, 2.0]})

    def test_constant_profile_classifies_like_a_latitude_cone(self):
        surface = load_surface({"kind": "prescribed_kappa",
                                "profile": {"type": "constant", "kappa0": 0.7},
                                "s1_range": [0.0, 2.0]})
        assert surface.param_range == (0.0, 2.0)
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 128))
        assert samples.kappa == pytest.approx(0.7, abs=1e-9)
        report = classify_samples(samples)
        assert tuple(int(getattr(report, name).verdict) for name in VERDICTS) == (1, 0, 1, 1, 1)

    @pytest.mark.parametrize("name, params, profile", [
        ("constant_sigma", {"d": 0.4, "s1_range": [-1.5, 1.2], "alpha": 0.3, "step": 0.02},
         {"type": "constant_sigma", "d": 0.4}),
        ("tabulated_kappa", {**TABULATED, "s1_range": [0.0, 3.0]},
         {"type": "tabulated", **TABULATED}),
    ], ids=["constant_sigma", "tabulated_kappa"])
    def test_generated_catalog_entry_matches_its_prescribed_document(self, name, params, profile):
        doc = {"kind": "prescribed_kappa", "profile": profile,
               **{key: params[key] for key in ("s1_range", "alpha", "step") if key in params}}
        surfaces = catalog(name, params), load_surface(doc)
        tables, blocks = [], []
        for surface in surfaces:
            samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 96))
            tables.append(csv_table(samples))
            doc = report_document(surface, samples, classify_samples(samples))
            blocks.append(dumps_deterministic({"samples": doc["samples"]}))
        assert tables[0] == tables[1]
        assert blocks[0] == blocks[1]
        assert surfaces[0].provenance == {"kind": "catalog", "name": name, "params": params}

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "catalog", "name": "constant_sigma", "params": {"alpha": 0.2}},
         "constant_sigma: missing keys ['d']"),
        ({"kind": "catalog", "name": "tabulated_kappa",
          "params": {**TABULATED, "s1_range": [0.0, 2.0]}},
         "tabulated_kappa.s1_range: must match the tabulated knot span [0.0, 3.0]"),
        ({"kind": "catalog", "name": "hyperboloid", "params": {"R": 2.0}},
         "hyperboloid: unknown keys ['R']"),
        ({"kind": "catalog", "name": "constant_sigma", "params": {"d": 0.5, "s1_range": [1, -1]}},
         "constant_sigma.s1_range: hi must exceed lo"),
        ({"kind": "prescribed_kappa", "profile": {"type": "constant_sigma", "d": 0.4},
          "s1_range": [-1.0, 0.0, 1.0]},
         "spec.s1_range: expected a list of 2 numbers, got [-1.0, 0.0, 1.0]"),
        ({"kind": "prescribed_kappa", "profile": {"type": "constant_sigma", "d": 0.4},
          "alpha": math.nan},
         "spec.alpha: expected a number, got nan"),
        ({"kind": "prescribed_kappa", "profile": ["constant_sigma", 0.4]},
         "profile: expected an object with a 'type' key"),
        ({"kind": "sampled", "u": [0.0, 1.0, 2.0, math.inf], "f": [], "q": []},
         "spec.u[3]: expected a number, got inf"),
    ], ids=["catalog-missing", "catalog-span", "catalog-unknown", "catalog-reversed", "range3",
            "alpha-nan", "profile-list", "sampled-inf"])
    def test_both_spec_kinds_raise_one_error_class(self, doc, message):
        assert SpecError is BadParams
        with pytest.raises(SpecError) as info:
            load_surface(doc)
        assert str(info.value) == message

    def test_sampled_validation(self):
        u = [0.1 * k for k in range(20)]
        rows = [[1.0, 0.0, 0.0]] * 20
        good = {"kind": "sampled", "u": u, "f": rows, "q": rows}
        load_surface(good)
        with pytest.raises(SpecError):  # too short
            load_surface({"kind": "sampled", "u": u[:10], "f": rows[:10],
                          "q": rows[:10]})
        with pytest.raises(SpecError):  # length mismatch
            load_surface({"kind": "sampled", "u": u, "f": rows[:-1], "q": rows})
        with pytest.raises(SpecError):  # not increasing
            load_surface({"kind": "sampled", "u": list(reversed(u)), "f": rows,
                          "q": rows})
        with pytest.raises(SpecError):  # director far from unit
            load_surface({"kind": "sampled", "u": u, "f": rows,
                          "q": [[0.5, 0.0, 0.0]] * 20})

    def test_sampled_evaluation_tracks_analytic_jets(self):
        source = catalog("helicoid")
        doc = sampled_spec_document(source, 128)
        surface = load_surface(doc)
        u0 = np.array([math.pi])  # interior point
        got = surface.director(u0)
        want = source.director(u0)
        assert norm(got.d0 - want.d0)[0] < 1e-9
        assert norm(got.d1 - want.d1)[0] < 1e-6
        assert norm(got.d2 - want.d2)[0] < 1e-3
        assert abs(norm(got.d0)[0] - 1.0) < 1e-12  # normalized at evaluation

    def test_sampled_normalizes_slightly_off_directors(self):
        u = [0.1 * k for k in range(20)]
        scale = 1.0 + 5e-7  # inside the unit tolerance
        q = [[scale * math.cos(t), scale * math.sin(t), 0.0] for t in u]
        f = [[0.0, 0.0, t] for t in u]
        surface = load_surface({"kind": "sampled", "u": u, "f": f, "q": q})
        assert abs(norm(surface.director(np.array([1.0])).d0)[0] - 1.0) < 1e-12

    def test_read_spec_wraps_json_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        with pytest.raises(SpecError):
            read_spec(path)


class TestDocuments:
    def test_sampled_spec_document_shape(self):
        doc = sampled_spec_document(catalog("helicoid"), 32)
        assert list(doc) == ["kind", "u", "f", "q"]
        assert len(doc["u"]) == len(doc["f"]) == len(doc["q"]) == 32
        assert doc["u"][0] == 0.0 and doc["u"][-1] == 2 * math.pi

    def test_sampled_spec_document_minimum(self):
        with pytest.raises(SpecError):
            sampled_spec_document(catalog("helicoid"), 8)

    def test_report_document_layout(self):
        from slantsurf import classify_samples

        surface = catalog("latitude_cone", {"beta": 0.6})
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 32))
        report = classify_samples(samples)
        doc = report_document(surface, samples, report)
        assert list(doc) == ["meta", "samples", "slant", "audits"]
        assert doc["meta"]["tool"] == "slantsurf"
        assert doc["meta"]["surface"]["name"] == "latitude_cone"
        row = json.loads(dumps_deterministic(doc))["samples"][0]
        assert list(row) == ["u", "s1", "kappa", "kappa_prime", "sigma",
                             "q", "h", "a", "W", "striction_point"]
        assert doc["slant"]["darboux_strict"]["darboux_constant"] == pytest.approx(
            1.0 / math.cos(0.6), abs=1e-9)

    def test_csv_table(self):
        surface = catalog("helicoid")
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 20))
        lines = csv_table(samples).splitlines()
        assert len(lines) == 21
        assert lines[0].split(",")[:5] == ["u", "s1", "kappa", "kappa_prime", "sigma"]
        assert all(len(line.split(",")) == 20 for line in lines[1:])

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"x": 1})
        assert target.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_write_leaves_target_and_no_stray_file(self, tmp_path):
        target = tmp_path / "doc.txt"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(target, "\ud800")  # lone surrogate: utf-8 refuses it
        assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]
        assert target.read_text() == "old\n"

    def test_concurrent_writers_leave_one_whole_document(self, tmp_path):
        target = tmp_path / "doc.json"
        child = ("import json, sys\n"
                 "from slantsurf import write_text_atomic\n"
                 "text = json.dumps({'writer': sys.argv[2], 'rows': list(range(40000))})\n"
                 "for _ in range(20):\n"
                 "    write_text_atomic(sys.argv[1], text)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        writers = [subprocess.Popen([sys.executable, "-c", child, str(target), name], env=env)
                   for name in ("a", "b")]
        deadline = time.monotonic() + 120
        while True:
            running = any(w.poll() is None for w in writers) and time.monotonic() < deadline
            if target.exists():
                doc = json.loads(target.read_text())  # a torn file would not parse
                assert doc["writer"] in {"a", "b"} and doc["rows"] == list(range(40000))
            if not running:
                break
        assert [w.wait(timeout=60) for w in writers] == [0, 0]
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_atomic_write_keeps_plain_file_mode(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        target = tmp_path / "doc.txt"
        write_text_atomic(target, "x")
        assert target.stat().st_mode == plain.stat().st_mode


class TestExportObj:
    def test_counts(self):
        text = export_obj(catalog("helicoid"), 5, -1.0, 1.0, 4)
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 20
        assert sum(1 for l in lines if l.startswith("f ")) == 2 * 4 * 3

    def test_vertex_positions_row_major(self):
        surface = catalog("helicoid")
        text = export_obj(surface, 3, 0.0, 1.0, 2)
        verts = [l for l in text.splitlines() if l.startswith("v ")]
        # u outer, v inner: second vertex is (u_0, v_max)
        assert verts[0] == "v 0 0 0"
        assert verts[1] == "v 1 0 0"

    def test_faces_wind_toward_central_asymptotic_normal(self):
        surface = catalog("helicoid")
        text = export_obj(surface, 3, 0.5, 1.0, 2)
        lines = text.splitlines()
        verts = np.array([l.split()[1:] for l in lines if l.startswith("v ")], dtype=float)
        first = next(l for l in lines if l.startswith("f "))
        i, j, k = (int(x) - 1 for x in first.split()[1:])
        normal = cross(verts[j] - verts[i], verts[k] - verts[i])
        a = np.array([0.0, 0.0, 1.0])  # asymptotic normal of the helicoid director
        assert dot(normal, a) > 0.0

    def test_validation(self):
        surface = catalog("helicoid")
        with pytest.raises(SpecError):
            export_obj(surface, 1, -1.0, 1.0, 4)
        with pytest.raises(SpecError):
            export_obj(surface, 4, -1.0, 1.0, 1)
        with pytest.raises(SpecError):
            export_obj(surface, 4, 1.0, 1.0, 4)
        with pytest.raises(SpecError):
            export_obj(surface, 4, 2.0, -2.0, 4)
