"""Numerical evaluation of the phi functions and symbolic coefficient trees.

The entire functions ``phi_0(z) = exp(z)`` and

    phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,        phi_k(0) = 1/k!

are the building blocks of every exponential Runge-Kutta coefficient.  The
recursion itself is catastrophically cancellative near ``z = 0`` (the
numerator vanishes like ``z``), so :func:`phi` switches between a Taylor
series for small ``|z|`` and an ``expm1``-seeded bottom-up recursion for
large ``|z|``.

Tableau coefficients such as ``c2*phi_1(c2*z)`` or the Cox-Matthews product
``(1/2)*phi_1(z/2)*(exp(z/2) - 1)`` are represented as small immutable
expression trees (:data:`PhiExpr`) over the scalar variable ``z``, with
rational constants kept exact until evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "phi",
    "Const",
    "Var",
    "Phi",
    "Sum",
    "Product",
    "Negate",
    "PhiExpr",
    "evaluate",
]

# Terms needed for the Taylor branch: worst case |z| ~ k <= 8 converges to
# 1e-18 relative well inside this cap.
_MAX_TAYLOR_TERMS = 200


def _phi_taylor(k: int, z: np.ndarray) -> np.ndarray:
    # Valid for |z| < max(1, k): successive term ratios |z|/(m+k+1) < 1, so
    # the alternating sum is bounded by its first term 1/k! and loses at
    # most one digit to cancellation.
    acc = np.full(z.shape, 1.0 / math.factorial(k))
    term = acc.copy()
    for m in range(1, _MAX_TAYLOR_TERMS):
        term = term * z / (m + k)
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    return acc


def _phi_recursive(k: int, z: np.ndarray) -> np.ndarray:
    # Valid for |z| >= max(1, k): there j! * phi_j(z) stays well below 1 for
    # every level j < k, so subtracting 1/j! is benign.
    p = np.expm1(z) / z
    for j in range(1, k):
        p = (p - 1.0 / math.factorial(j)) / z
    return p


def phi(k: int, z) -> Union[float, np.ndarray]:
    """Evaluate ``phi_k`` elementwise at ``z`` (scalar or array).

    Relative accuracy is ~1e-14 or better over ``z in [-1e6, 1]`` for
    ``k <= 8``; ``phi_k(0)`` is the correctly rounded value of ``1/k!``.
    Raises ``ValueError`` for negative ``k`` or non-finite ``z``.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"phi order must be a non-negative integer, got {k}")
    k = int(k)
    zarr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zarr)):
        raise ValueError("phi argument must be finite")
    if k == 0:
        out = np.exp(zarr)
        return float(out) if np.isscalar(z) or zarr.ndim == 0 else out

    out = np.empty_like(zarr)
    small = np.abs(zarr) < max(1.0, float(k))
    if np.any(small):
        out[small] = _phi_taylor(k, zarr[small])
    if not np.all(small):
        out[~small] = _phi_recursive(k, zarr[~small])
    return float(out) if np.isscalar(z) or zarr.ndim == 0 else out


# --------------------------------------------------------------------------
# Symbolic coefficient expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """A literal coefficient; kept as an exact ``Fraction`` when rational."""

    value: Union[Fraction, float]


@dataclass(frozen=True)
class Var:
    """The spectral variable ``z`` itself."""


@dataclass(frozen=True)
class Phi:
    """``phi_order(scale * z)``; ``scale`` is an abscissa in ``(0, 1]``."""

    order: int
    scale: Union[Fraction, float] = Fraction(1)


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Negate:
    child: "PhiExpr"


PhiExpr = Union[Const, Var, Phi, Sum, Product, Negate]


def evaluate(expr: PhiExpr, z) -> Union[float, np.ndarray]:
    """Recursively evaluate an expression tree at ``z`` (scalar or array).

    ``Phi`` nodes delegate to :func:`phi` with the scaled argument; constants
    are converted to float only here.  Raises ``TypeError`` for objects that
    are not expression nodes.
    """
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Var):
        return z if np.isscalar(z) else np.asarray(z, dtype=float)
    if isinstance(expr, Phi):
        return phi(expr.order, float(expr.scale) * z)
    if isinstance(expr, Sum):
        acc = evaluate(expr.terms[0], z)
        for term in expr.terms[1:]:
            acc = acc + evaluate(term, z)
        return acc
    if isinstance(expr, Product):
        acc = evaluate(expr.factors[0], z)
        for factor in expr.factors[1:]:
            acc = acc * evaluate(factor, z)
        return acc
    if isinstance(expr, Negate):
        return -evaluate(expr.child, z)
    raise TypeError(f"not a PhiExpr node: {expr!r}")
