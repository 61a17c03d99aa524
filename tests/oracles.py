"""Second routes to the spectral operator, for tests only.

``scipy.fft.dst`` transforms here, so a result built from these helpers does
not share its sine transform with ``SpectralOperator.forward``, and the
stencil product and quadrature inner product take no transform at all.
"""

import numpy as np
import scipy.fft

from eerk.spatial import SpectralOperator


def build_laplacian_1d(length: float, m: int) -> SpectralOperator:
    """Dirichlet Laplacian on ``(0, length)`` with ``m`` interior points."""
    return SpectralOperator(length, m)


def _dst(v):
    return scipy.fft.dst(v, type=1, norm="ortho")


def apply_values(op, values, v):
    """``f(L) v`` from the values ``f(lam)`` on the spectrum."""
    if len(v) != op.m:
        raise ValueError(f"vector length {len(v)} != {op.m}")
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("operator function not finite on the spectrum")
    return _dst(values * _dst(v))


def apply(op, f, v):
    """Apply the operator function ``f(L)`` to ``v`` spectrally."""
    return apply_values(op, f(op.eigenvalues), v)


def apply_stencil(op, v):
    """Tridiagonal product ``L v`` with Dirichlet ends, in O(m)."""
    out = 2.0 * v
    out[:-1] -= v[1:]
    out[1:] -= v[:-1]
    return out / op.h**2


def inner(op, u, v, metric="l2"):
    """Quadrature-weighted inner product: ``h * sum(u v)`` for ``l2``,
    ``h * sum(u L^{-1} v)`` for ``hminus1``."""
    if metric == "l2":
        return float(op.h * np.dot(u, v))
    if metric == "hminus1":
        return float(op.h * np.dot(_dst(u), _dst(v) / op.eigenvalues))
    raise ValueError(f"unknown metric {metric!r}")


def g_stabilized(problem, u):
    """Sine coefficients of the stabilized nonlinearity at the state ``u``."""
    return problem.nonlinearity_factor * _dst(problem.nonlinearity(u))
