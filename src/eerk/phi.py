"""Numerical evaluation of the phi functions and the algebra of tableau
coefficients.

The entire functions ``phi_0(z) = exp(z)`` and

    phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,        phi_k(0) = 1/k!

are the building blocks of every exponential Runge-Kutta coefficient.  The
recursion itself is catastrophically cancellative near ``z = 0`` (the
numerator vanishes like ``z``), so :func:`phi` switches between a Taylor
series for small ``|z|`` and an ``expm1``-seeded bottom-up recursion for
large ``|z|``.

A tableau coefficient is an expression over the leaf :class:`Phi`, which
stands for ``phi_k(c z)``: ``a + b``, ``a - b``, ``-a`` and ``w * a`` with an
exact rational ``w`` build a weighted sum, and ``a * b`` a product, so the
Cox-Matthews coefficient reads ``half * Phi(1, half) * (Phi(0, half) - one)``
with the constant ``one = Phi(0, 0)``.  Any other operand is a ``TypeError``
when the expression is built.  ``expr.at(z, basis)`` evaluates terms and
factors left to right, multiplying only by a weight other than 1; ``basis``
holds each ``phi_k(c z)`` already evaluated, so the caller makes one phi call
per distinct leaf and none for a constant ``Phi(k, 0) = 1/k!``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = ["phi", "Phi"]

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
# Coefficient expressions
# --------------------------------------------------------------------------


class _Expr:
    def __add__(self, other):
        return _append(self, 1, other)

    def __sub__(self, other):
        return _append(self, -1, other)

    def __neg__(self):
        return -1 * self

    def __mul__(self, other):
        if isinstance(other, _Expr):
            return Product(self, other)
        if isinstance(other, (int, Fraction)):
            weight = Fraction(other)
            float(weight)  # raises OverflowError for a weight beyond float64
            return Sum(((weight, self),))
        return NotImplemented

    __rmul__ = __mul__


def _append(left: _Expr, weight: int, right):
    # a left-hand sum is extended rather than nested: both add left to right
    if not isinstance(right, _Expr):
        return NotImplemented
    terms = left.terms if isinstance(left, Sum) else ((Fraction(1), left),)
    return Sum(terms + ((Fraction(weight), right),))


@dataclass(frozen=True)
class Phi(_Expr):
    """``phi_order(scale * z)``; ``scale`` is an abscissa in ``(0, 1]``, or 0
    for the constant ``phi_order(0) = 1/order!``."""

    order: int
    scale: Union[Fraction, float] = Fraction(1)

    def at(self, z, basis: dict):
        if self.scale == 0:
            return 1 / math.factorial(self.order)
        if self not in basis:
            basis[self] = phi(self.order, float(self.scale) * z)
        return basis[self]


@dataclass(frozen=True)
class Sum(_Expr):
    """``w_1 e_1 + w_2 e_2 + ...`` for ``terms = ((w_1, e_1), ...)``."""

    terms: tuple

    def at(self, z, basis: dict):
        acc = None
        for weight, term in self.terms:
            value = term.at(z, basis)
            if weight != 1:
                value = float(weight) * value
            acc = value if acc is None else acc + value
        return acc


@dataclass(frozen=True)
class Product(_Expr):
    left: _Expr
    right: _Expr

    def at(self, z, basis: dict):
        return self.left.at(z, basis) * self.right.at(z, basis)
