"""Row-wise 3-vector algebra and third-order jets of space curves.

Vectors are rows: one vector is a length-3 array, and a curve sampled at N
parameter values is an ``(N, 3)`` array.  A ``Jet3`` bundles four such
arrays, the curve value and its first three derivatives.  Curve samplers
return jets against the raw curve parameter u, and ``frame`` reads the frame
and the curvatures straight from them, in any regular parameter.
``derivative_weights`` gives the weights that take a jet from tabulated
values on arbitrary nodes.

The row operations ``dot``, ``cross`` and ``norm`` work column by column
(x*x' + y*y' + z*z', left to right), and ``power`` calls the C library's
pow as ``float ** float`` does, so every row of a columnar result is
bit-identical to the same arithmetic written out on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EPS_CYL",
    "Jet3",
    "NonFiniteSample",
    "CylindricalDirector",
    "dot",
    "cross",
    "norm",
    "normalize",
    "power",
    "det3",
    "fd_jet",
    "derivative_weights",
]

# absolute threshold on |dq/du| below which the director counts as constant
EPS_CYL = 1e-9

# offsets of the five-point stencil, in steps
STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


class NonFiniteSample(ValueError):
    """A curve sampler returned a NaN or infinite coordinate."""


class CylindricalDirector(ValueError):
    """The director is locally constant, so its spherical image degenerates.

    Carries the offending parameter value in ``u`` when the caller knows it.
    """

    def __init__(self, message: str = "director derivative vanishes", u: float | None = None):
        self.u = u
        if u is not None:
            message = f"{message} at u={u!r}"
        super().__init__(message)


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner product of (..., 3) arrays."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., 3) arrays."""
    return np.stack(
        (
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ),
        axis=-1,
    )


def norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(dot(a, a))


def normalize(a: np.ndarray) -> np.ndarray:
    """Rows divided componentwise by their norms."""
    n = norm(a)
    if np.any(n == 0.0):
        raise ZeroDivisionError("cannot normalize the zero vector")
    return a / n[..., None]


def power(x, exponent: float) -> np.ndarray:
    """x ** exponent elementwise through the C library's pow.

    numpy's vectorized pow may differ from it in the last bit, and these
    values end up printed to 17 digits in reports.
    """
    x = np.asarray(x, dtype=float)
    return np.array([v**exponent for v in x.ravel().tolist()]).reshape(x.shape)


def det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise determinant of the 3x3 matrices with columns a, b, c."""
    return dot(a, cross(b, c))


@dataclass(frozen=True, slots=True, eq=False)
class Jet3:
    """Curve values and first three derivatives against one parameter.

    Each of ``d0``..``d3`` is an (N, 3) array, row i belonging to the i-th
    parameter value the jet was evaluated at.
    """

    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def is_finite(self) -> np.ndarray:
        """Per row: whether the value and all three derivatives are finite."""
        return (np.isfinite(self.d0).all(-1) & np.isfinite(self.d1).all(-1)
                & np.isfinite(self.d2).all(-1) & np.isfinite(self.d3).all(-1))


def fd_jet(curve: Callable[[np.ndarray], np.ndarray], u0, step: float) -> Jet3:
    """Numerical jets of ``curve`` at the points ``u0`` from 5-point central stencils.

    ``curve`` maps a 1-D parameter array to an (M, 3) array and is called
    once, on every stencil point at once.  d1 and d2 are fourth-order
    accurate, d3 second-order.  The sampler is evaluated at u0 and
    u0 +/- step, u0 +/- 2*step only.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    u0 = np.asarray(u0, dtype=float)
    stencil = u0[:, None] + STENCIL * step
    values = curve(stencil.ravel()).reshape(len(u0), len(STENCIL), 3)
    bad = ~np.isfinite(values).all(axis=2)
    if bad.any():
        at = float(stencil[bad][0])
        raise NonFiniteSample(f"sampler returned a non-finite value at u={at!r}")
    f = [values[:, k] for k in range(len(STENCIL))]
    d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * step)
    d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * step * step)
    d3 = (f[4] - 2.0 * f[3] + 2.0 * f[1] - f[0]) / (2.0 * step**3)
    return Jet3(f[2], d1, d2, d3)


def derivative_weights(z: np.ndarray, x: np.ndarray, m: int = 3) -> np.ndarray:
    """Weights of the derivatives 0..m at the points ``z`` from values on the nodes ``x``.

    ``z`` has shape (M,) and ``x`` (K, M), column i holding K distinct nodes
    for ``z[i]``.  Returns w of shape (m + 1, K, M): for values y of shape
    (K, M) on the nodes, ``(w[k] * y).sum(axis=0)`` is the k-th derivative at
    each z of the degree K-1 polynomial through them.  Fornberg's recursion
    (B. Fornberg, Math. Comp. 51, 1988), vectorized over the M points;
    c1..c5 are the paper's names.
    """
    nodes, count = x.shape
    w = np.zeros((m + 1, nodes, count))
    w[0, 0] = 1.0
    c1 = np.ones(count)
    c4 = x[0] - z
    for i in range(1, nodes):
        c3 = x[i] - x[:i]
        c2 = np.prod(c3, axis=0)
        c5, c4 = c4, x[i] - z
        for k in range(min(i, m), 0, -1):
            w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
        w[0, i] = -c1 * c5 * w[0, i - 1] / c2
        for k in range(m, 0, -1):
            w[k, :i] = (c4 * w[k, :i] - k * w[k - 1, :i]) / c3
        w[0, :i] = c4 * w[0, :i] / c3
        c1 = c2
    return w

