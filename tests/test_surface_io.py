"""Spec parsing, deterministic serialization, tables, and OBJ meshing."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
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
from slantsurf.cli import parse_cli, run
from slantsurf.generators import GENERATOR_KEYS
from slantsurf.geometry import cross, dot, norm
from slantsurf.surface_io import WRITE_SLICE

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

    def test_constant_profile_at_step_0_013_classifies_like_a_latitude_cone(self):
        # RK4 moves W by 1e-11 of its size (its derivative Gram trace is about
        # 5e-18): that is no tie between axes
        surface = load_surface({"kind": "prescribed_kappa",
                                "profile": {"type": "constant", "kappa0": 0.7},
                                "s1_range": [0.0, 2.0], "step": 0.013})
        report = classify_samples(frame_samples(surface, SampleGrid.uniform((0.0, 2.0), 128)))
        assert tuple(int(getattr(report, name).verdict) for name in VERDICTS) == (1, 0, 1, 1, 1)

    @pytest.mark.parametrize("doc, s1_range", [
        ({"kind": "prescribed_kappa", "profile": {"type": "constant_sigma", "d": 0.8},
          "s1_range": [-2.0, 1.0], "alpha": 0.3}, [-0.95 / 0.8, 1.0]),
        ({"kind": "prescribed_kappa", "profile": {"type": "constant", "kappa0": 0.7},
          "s1_range": [0.5, 2.0], "step": 0.013}, [0.5, 2.0]),
        ({"kind": "prescribed_kappa", "profile": {"type": "tabulated", **TABULATED}},
         [0.0, 3.0]),
    ], ids=["constant_sigma-clamped", "constant", "tabulated"])
    def test_report_surface_block_is_a_spec_of_the_same_report(self, doc, s1_range, tmp_path):
        spec, first, second = (tmp_path / name for name in ("spec.json", "1.json", "2.json"))
        spec.write_text(json.dumps(doc))
        assert run(parse_cli(["classify", "--surface", str(spec), "--samples", "64",
                              "--out", str(first)])) == 0
        surface = json.loads(first.read_text())["meta"]["surface"]
        # the domain actually integrated, after the |d s1| <= 0.95 clamp
        assert list(surface) == ["kind", "profile", *GENERATOR_KEYS]
        assert surface["s1_range"] == s1_range
        spec.write_text(json.dumps(surface))
        assert run(parse_cli(["classify", "--surface", str(spec), "--samples", "64",
                              "--out", str(second)])) == 0
        assert second.read_bytes() == first.read_bytes()

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
        ({"kind": "catalog", "name": "moebius"}, "unknown catalog surface 'moebius'"),
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
    ], ids=["catalog-missing", "catalog-span", "catalog-unknown", "catalog-name",
            "catalog-reversed", "range3", "alpha-nan", "profile-list", "sampled-inf"])
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


class TestSampledJets:
    """Jets of sampled tables: the README round trip and the observed order of accuracy."""

    @pytest.mark.parametrize("rows", [512, 1024, 4096])
    @pytest.mark.parametrize("d", [0.2, 0.3, 0.5])
    def test_generate_verify_round_trip_passes(self, d, rows, tmp_path):
        # measured: worst |sigma - d| 7.6e-4 at d = 0.5, 1024 rows, under the
        # 1e-3 sampled tol by 1.3x; the generated table's own error sets it
        spec, table, report = (str(tmp_path / name) for name in ("c.json", "s.json", "r.json"))
        Path(spec).write_text(json.dumps(
            {"kind": "catalog", "name": "constant_sigma", "params": {"d": d}}))
        assert run(parse_cli(["generate", "--surface", spec, "--samples", str(rows),
                              "--out", table])) == 0
        assert run(parse_cli(["verify", "--surface", table, "--out", report])) == 0
        doc = json.loads(Path(report).read_text())
        verdicts = [doc["slant"][key]["verdict"]
                    for key in ("q", "h", "a", "darboux_strict", "darboux_angular")]
        assert verdicts == [False, True, False, False, True]
        assert all(audit["passed"] for audit in doc["audits"].values() if audit["applicable"])
        assert max(abs(row["sigma"] - d) for row in doc["samples"]) <= 1e-3

    def test_sampled_latitude_cone_classifies_like_the_closed_form(self):
        source = catalog("latitude_cone", {"beta": 0.5236})
        surface = load_surface(sampled_spec_document(source, 128))
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 128))
        report = classify_samples(samples, 1e-3)
        assert tuple(int(getattr(report, name).verdict) for name in VERDICTS) == (1, 0, 1, 1, 1)

    @pytest.mark.parametrize("name, params", [
        ("hyperboloid", {"r": 1.0, "pitch": 0.7}),
        ("latitude_cone", {"beta": 0.5}),
    ])
    def test_kappa_and_sigma_converge_at_fifth_order(self, name, params):
        # an 8-node interpolant differentiated three times is O(h^5); measured
        # orders 4.7, 5.0, 5.0 from 32 to 256 rows, then the float64 floor:
        # at most 6e-8 at 512 and 1024 rows
        source = catalog(name, params)
        grid = SampleGrid.uniform(source.param_range, 64)
        exact = frame_samples(source, grid)

        def error(rows: int) -> float:
            got = frame_samples(load_surface(sampled_spec_document(source, rows)), grid)
            return max(np.max(np.abs(got.kappa - exact.kappa)),
                       np.max(np.abs(got.sigma - exact.sigma)))

        ladder = [error(rows) for rows in (32, 64, 128, 256)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(ladder, ladder[1:])]
        assert min(orders) >= 4.5, orders
        assert error(512) <= 1e-7 and error(1024) <= 1e-7


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

    def test_text_over_slice_boundaries_reads_back_identical(self, tmp_path):
        # a two-byte and a four-byte character on each side of both slice boundaries
        text = ("x" * (WRITE_SLICE - 1) + "\u00e9\U0001d705" + "y" * (WRITE_SLICE - 2)
                + "\u00e9\U0001d705" + "z\n" * (WRITE_SLICE // 4))
        assert text[WRITE_SLICE - 1:WRITE_SLICE + 1] == "\u00e9\U0001d705"
        assert text[2 * WRITE_SLICE - 1:2 * WRITE_SLICE + 1] == "\u00e9\U0001d705"
        target = tmp_path / "doc.txt"
        write_text_atomic(target, text)
        assert target.read_bytes() == text.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]

    def test_failed_later_slice_leaves_target_and_no_stray_file(self, tmp_path):
        target = tmp_path / "doc.txt"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):  # the first slice is written, the second fails
            write_text_atomic(target, "a" * WRITE_SLICE + "b\ud800c")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.txt"]
        assert target.read_text() == "old\n"


def traced_peak(render, *args):
    """``render(*args)`` and the peak of memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = render(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSerializationPeak:
    """Peak memory of rendering an 8192-sample report (4.8 MB) and writing 9.6 MB.

    The floor is the parts the text is joined from plus the joined ``str``:
    2.00x the text, measured, for the report and for the CSV table, at 8192
    and at 16384 samples.  Rendering the whole table in one ``%`` peaked at
    3.09x (report) and 3.59x (CSV), and encoding the whole text in one write
    took 1.00x the text more.  Tracing every allocation makes each render
    about 6x slower, so the table is 8192 samples, not 16384.
    """

    @pytest.fixture(scope="class")
    def table(self):
        surface = catalog("constant_sigma", {"d": 0.5})
        samples = frame_samples(surface, SampleGrid.uniform(surface.param_range, 8192))
        return samples, report_document(surface, samples, classify_samples(samples))

    def test_report_peaks_near_twice_its_text(self, table):
        text, peak = traced_peak(dumps_deterministic, table[1])
        assert peak <= 2.25 * len(text)  # measured 2.00x; margin 12%

    def test_csv_peaks_near_twice_its_text(self, table):
        text, peak = traced_peak(csv_table, table[0])
        assert peak <= 2.25 * len(text)  # measured 2.00x; margin 12%

    def test_write_encodes_a_slice_at_a_time(self, tmp_path):
        text = "0.30000000000000004,\n" * 458_000  # 9.6 MB: a 16384-sample report
        _, peak = traced_peak(write_text_atomic, tmp_path / "r.json", text)
        assert peak <= 3 * 2**20  # measured 2.01 MiB; margin 1.5x (9.18 MiB in one write)


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

    def test_small_export_text(self):
        text = export_obj(catalog("helicoid"), 3, 0.0, 1.0, 3)
        assert text == (
            "v 0 0 0\n"
            "v 0.5 0 0\n"
            "v 1 0 0\n"
            "v 0 0 3.1415926535897931\n"
            "v -0.5 6.123233995736766e-17 3.1415926535897931\n"
            "v -1 1.2246467991473532e-16 3.1415926535897931\n"
            "v 0 0 6.2831853071795862\n"
            "v 0.5 -1.2246467991473532e-16 6.2831853071795862\n"
            "v 1 -2.4492935982947064e-16 6.2831853071795862\n"
            "f 1 2 5\nf 1 5 4\n"
            "f 2 3 6\nf 2 6 5\n"
            "f 4 5 8\nf 4 8 7\n"
            "f 5 6 9\nf 5 9 8\n"
        )

    @pytest.mark.parametrize("cols, rows", [(7, 5), (2, 9), (9, 2)])
    def test_faces_match_the_per_cell_loop(self, cols, rows):
        want = []
        for i in range(cols - 1):
            for j in range(rows - 1):
                a, c = i * rows + j + 1, (i + 1) * rows + j + 1
                want += [f"f {a} {a + 1} {c + 1}", f"f {a} {c + 1} {c}"]
        text = export_obj(catalog("helicoid"), cols, -1.0, 1.0, rows)
        assert [line for line in text.splitlines() if line.startswith("f ")] == want

    def test_non_finite_vertex_names_the_first_in_vertex_order(self):
        helicoid = catalog("helicoid")

        def base(u):
            jet = helicoid.base_curve(u)
            jet.d0[1, 1] = math.nan  # y of every vertex on the second ruling
            jet.d0[2, 0] = math.inf  # x of the third: later in vertex order, earlier by column
            return jet

        surface = dataclasses.replace(helicoid, base_curve=base)
        with pytest.raises(SpecError) as info:
            export_obj(surface, 4, -1.0, 1.0, 3)
        assert str(info.value) == "non-finite value nan cannot be serialized"

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

    def test_collapsed_v_grid_names_the_range(self):
        # the v step 2e-324 rounds to 0 or 5e-324: neighbouring rows coincide
        with pytest.raises(SpecError) as info:
            export_obj(catalog("helicoid"), 4, 0.0, 1e-323, 6)
        assert str(info.value) == ("degenerate v range: 6 rows between v_min=0.0 and "
                                   "v_max=1e-323 are not distinct")
