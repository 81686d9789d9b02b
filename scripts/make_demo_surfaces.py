#!/usr/bin/env python3
"""Write a set of demo artifacts under out/: spec files, a report, a mesh.

Usage: python3 scripts/make_demo_surfaces.py [--out DIR]

Produces one spec file per demo surface plus, for the constant-sigma demo,
the analysis report, the CSV table, and an OBJ mesh you can drop into any
viewer.  Everything goes through the same writer the CLI uses, so reruns
are byte-identical.
"""

import argparse
import math
import pathlib

from slantsurf import (
    SampleGrid,
    catalog,
    classify_samples,
    csv_table,
    export_obj,
    frame_samples,
    report_document,
    sampled_spec_document,
    write_json_atomic,
    write_text_atomic,
)
from slantsurf.cli import AUDITORS

DEMOS = {
    "helicoid.json": {"kind": "catalog", "name": "helicoid"},
    "cone_pi6.json": {"kind": "catalog", "name": "latitude_cone",
                      "params": {"beta": math.pi / 6}},
    "hyperboloid.json": {"kind": "catalog", "name": "hyperboloid",
                         "params": {"r": 1.0, "pitch": 0.5}},
    "constant_sigma.json": {"kind": "prescribed_kappa",
                            "profile": {"type": "constant_sigma", "d": 0.5},
                            "alpha": 0.0, "step": 0.01},
    "tabulated.json": {"kind": "prescribed_kappa",
                       "profile": {"type": "tabulated",
                                   "s1_knots": [0.0, 1.0, 2.0, 3.0],
                                   "kappa_values": [0.0, 0.8, -0.4, 0.6]},
                       "alpha": 0.3, "step": 0.01},
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out")
    parser.add_argument("--samples", type=int, default=256)
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, spec in DEMOS.items():
        write_json_atomic(out / name, spec)
        print(f"wrote {out / name}")

    surface = catalog("constant_sigma", {"d": 0.5})
    grid = SampleGrid.uniform(surface.param_range, args.samples)
    samples = frame_samples(surface, grid)
    rep = classify_samples(samples)
    audits = [auditor(surface, grid, samples=samples, report=rep)
              for auditor in AUDITORS.values()]
    doc = report_document(surface, samples, rep, audits)
    write_json_atomic(out / "constant_sigma_report.json", doc)
    write_text_atomic(out / "constant_sigma_table.csv", csv_table(samples))
    write_json_atomic(out / "constant_sigma_resampled.json",
                      sampled_spec_document(surface, 256))
    write_text_atomic(out / "constant_sigma.obj",
                      export_obj(surface, 96, -0.6, 0.6, rows=12))
    mesh = catalog("helicoid")
    write_text_atomic(out / "helicoid.obj", export_obj(mesh, 96, -1.0, 1.0, rows=10))
    print(f"wrote report, csv, resampled spec and two meshes under {out}/")
    print(f"h-slant: {rep.h_slant.verdict}  "
          f"angle constant {rep.darboux_angular.constant:.10f}")


if __name__ == "__main__":
    main()
