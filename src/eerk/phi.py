"""Numerical evaluation of the phi functions and the algebra of tableau
coefficients.

The entire functions ``phi_0(z) = exp(z)`` and

    phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,        phi_k(0) = 1/k!

are the building blocks of every exponential Runge-Kutta coefficient.  The
recursion itself is catastrophically cancellative near ``z = 0`` (the
numerator vanishes like ``z``), so :func:`phi` switches between a Taylor
series for small ``|z|`` and an ``expm1``-seeded bottom-up recursion for
large ``|z|``.

A tableau coefficient is evaluated as it is written.  ``P = basis(z)``
gives ``P(k, c) = phi_k(c z)`` as a :class:`Coefficient`, on which ``+``,
``-``, ``*`` and exact rational weights compute at once, in the order the
formula is written: the Cox-Matthews coefficient is
``half * P(1, half) * (P(0, half) - P(0, 0))``, with ``P(0, 0) = 1``.  Any
other operand is a ``TypeError``.  A basis makes one phi call per distinct
``phi_k(c z)`` and none for a constant ``P(k, 0) = 1/k!``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = ["phi", "basis", "Coefficient"]

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
# Coefficient arithmetic
# --------------------------------------------------------------------------


class Coefficient:
    """A value of ``phi_k(c z)`` arithmetic: ``a + b``, ``a - b``, ``-a``,
    ``a * b`` and ``w * a`` with an exact ``int`` or ``Fraction`` weight
    ``w`` evaluate at once; any other operand is a ``TypeError``, and a
    weight beyond float64 an ``OverflowError``."""

    __slots__ = ("value",)
    __array_ufunc__ = None  # a numpy operand defers to the methods below

    def __init__(self, value):
        self.value = value

    def __add__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return Coefficient(self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return Coefficient(self.value - other.value)

    def __neg__(self):
        return Coefficient(-self.value)

    def __mul__(self, other):
        if isinstance(other, Coefficient):
            return Coefficient(self.value * other.value)
        if isinstance(other, (int, Fraction)):
            return Coefficient(float(other) * self.value)
        return NotImplemented

    __rmul__ = __mul__


def basis(z):
    """``P(k, c=1)``: ``phi_k(c z)`` as a :class:`Coefficient`.  Each
    distinct ``(k, c)`` with ``c != 0`` is one :func:`phi` call, and the
    constant ``c = 0`` gives ``1/k!`` with none."""
    memo = {}

    def P(k: int, c=1) -> Coefficient:
        if c == 0:
            return Coefficient(1 / math.factorial(k))
        if (k, c) not in memo:
            memo[k, c] = Coefficient(phi(k, float(c) * z))
        return memo[k, c]

    return P
