#!/usr/bin/env python3
"""Run every auditor over every catalog surface and print the results.

Usage: python3 scripts/audit_catalog.py [--samples N]

Handy when touching the frame or classification code: the table makes it
obvious which surface stopped behaving.
"""

import argparse
import math

from slantsurf import SampleGrid, catalog, classify_samples, frame_samples
from slantsurf.cli import AUDITORS

SURFACES = [
    ("helicoid", "helicoid", {}),
    ("cone(pi/6)", "latitude_cone", {"beta": math.pi / 6}),
    ("cone(pi/4)", "latitude_cone", {"beta": math.pi / 4}),
    ("cone(pi/3)", "latitude_cone", {"beta": math.pi / 3}),
    ("hyperboloid", "hyperboloid", {"r": 1.0, "pitch": 1.0}),
    ("radial_plane", "radial_plane", {}),
    ("const_sigma(.25)", "constant_sigma", {"d": 0.25}),
    ("const_sigma(.5)", "constant_sigma", {"d": 0.5}),
    ("tabulated_lin", "tabulated_kappa",
     {"s1_knots": [0.0, 1.5, 3.0], "kappa_values": [0.0, 1.5, 3.0]}),
]


def flag(value):
    return {True: "yes", False: "NO", None: "-"}[value]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=256)
    args = parser.parse_args()

    audit_ids = list(AUDITORS)
    header = (["surface", "q", "h", "a", "strict", "angular", "kappa", "sigma"]
              + audit_ids)
    rows = [header]
    for label, name, params in SURFACES:
        surface = catalog(name, params)
        grid = SampleGrid.uniform(surface.param_range, args.samples)
        samples = frame_samples(surface, grid)
        rep = classify_samples(samples)
        row = [label,
               flag(rep.q_slant.verdict), flag(rep.h_slant.verdict),
               flag(rep.a_slant.verdict), flag(rep.darboux_strict.verdict),
               flag(rep.darboux_angular.verdict),
               f"{rep.kappa_constancy.mean:+.3f}",
               f"{rep.sigma_constancy.mean:+.3f}"]
        for tid in audit_ids:
            record = AUDITORS[tid](surface, grid, samples=samples, report=rep)
            if not record.applicable:
                row.append("n/a")
            else:
                row.append("pass" if record.passed else "FAIL")
        rows.append(row)

    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


if __name__ == "__main__":
    main()
