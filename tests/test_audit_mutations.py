"""Audits that can fail: a mutation matrix over corrupted frame tables.

Each surface's N = 512 frame table is corrupted six ways, sigma and W are
rebuilt from the corrupted columns, and the table is classified and run
through all five audits.  The grid of outcomes (passed, FAILED, not
applicable) is pinned: an audit that goes blind to a corruption it caught
fails here, and one that catches a new corruption changes the pin.
"""

import dataclasses
import functools

import numpy as np
import pytest

from slantsurf import catalog
from slantsurf.cli import AUDITORS
from slantsurf.frame import SampleGrid, darboux_vector, frame_samples, sigma
from slantsurf.slant import classify_samples

N = 512
SURFACES = {
    "latitude_cone": ("latitude_cone", {"beta": 0.5236}),
    "constant_sigma": ("constant_sigma", {"d": 0.5}),
    "tabulated": ("tabulated_kappa", {"s1_knots": [0.0, 1.0, 2.0, 3.0],
                                      "kappa_values": [0.0, 0.8, -0.4, 1.1]}),
}


def _rotate_h_and_a(t):
    """h and a turned about q by the angle 1e-3 s1: still an orthonormal frame."""
    angle = (1e-3 * t.s1)[:, None]
    cos, sin = np.cos(angle), np.sin(angle)
    return {"h": t.h * cos + t.a * sin, "a": t.a * cos - t.h * sin}


CORRUPTIONS = {
    "clean": lambda t: {},
    "kappa_scaled": lambda t: {"kappa": t.kappa * (1.0 + 1e-3)},
    "kappa_wave": lambda t: {"kappa": t.kappa + 1e-3 * np.sin(3.0 * t.s1)},
    "kappa_prime_scaled": lambda t: {"kappa_prime": t.kappa_prime * 1.01},
    "kappa_prime_wave": lambda t: {"kappa_prime": t.kappa_prime + 1e-3 * np.sin(3.0 * t.s1)},
    "frame_rotated": _rotate_h_and_a,
    "s1_stretched": lambda t: {"s1": t.s1 * (1.0 + 1e-3)},
}

# per surface and corruption, the outcome of each audit in AUDITORS' order
# (2.1, 3.1, cor3.1, 3.2, 3.3-3.4):
# "+" passed, "F" FAILED, "-" not applicable
EXPECTED = {
    "latitude_cone": {
        "clean": "+++-+",
        "kappa_scaled": "+F+-+",
        "kappa_wave": "+++--",
        "kappa_prime_scaled": "+++-+",
        "kappa_prime_wave": "+++-+",
        "frame_rotated": "+F+-F",
        "s1_stretched": "+++-+",
    },
    "constant_sigma": {
        "clean": "++++-",
        "kappa_scaled": "F++--",
        "kappa_wave": "F++--",
        "kappa_prime_scaled": "F++F-",
        "kappa_prime_wave": "F++--",
        "frame_rotated": "F++--",
        "s1_stretched": "++++-",
    },
    # kappa and sigma vary: 2.1 and 3.1 are vacuous, 3.2 and 3.3-3.4 do not apply
    "tabulated": {corruption: "+++--" for corruption in CORRUPTIONS},
}


@functools.cache
def _clean(label: str):
    name, params = SURFACES[label]
    surface = catalog(name, params)
    grid = SampleGrid.uniform(surface.param_range, N)
    return surface, grid, frame_samples(surface, grid)


def _corrupted(table, corruption: str):
    """The table with the corrupted columns replaced and sigma and W rebuilt."""
    t = dataclasses.replace(table, **CORRUPTIONS[corruption](table))
    return dataclasses.replace(t, sigma=sigma(t.kappa, t.kappa_prime),
                               darboux=darboux_vector(t.kappa, t.q, t.a))


def _outcomes(label: str, corruption: str) -> str:
    """One cell per audit, each audit reading one classification of the corrupted table."""
    surface, grid, table = _clean(label)
    samples = _corrupted(table, corruption)
    report = classify_samples(samples)
    records = [audit(surface, grid, samples=samples, report=report)
               for audit in AUDITORS.values()]
    return "".join("-" if r.passed is None else "+" if r.passed else "F" for r in records)


@pytest.mark.parametrize("label, corruption",
                         [(label, c) for label in SURFACES for c in CORRUPTIONS])
def test_audit_outcomes_are_pinned(label, corruption):
    assert _outcomes(label, corruption) == EXPECTED[label][corruption]


def test_the_pinned_matrix_names_each_audits_reach():
    corrupted = [cells for row in EXPECTED.values()
                 for corruption, cells in row.items() if corruption != "clean"]
    assert list(AUDITORS) == ["2.1", "3.1", "cor3.1", "3.2", "3.3-3.4"]
    assert len(corrupted) * len(AUDITORS) == 90
    assert sum(cells.count("F") for cells in corrupted) == 9
    # det(kappa q + a, kappa' q, kappa' h) = kappa'^2 holds for any orthonormal
    # frame, so cor3.1 is blind to every corruption that keeps the frame one
    assert all(cells[2] == "+" for cells in corrupted)
    assert all(row["clean"].count("F") == 0 for row in EXPECTED.values())
