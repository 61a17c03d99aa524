"""Discrete 1-D Dirichlet Laplacian, spectral function application and the
Cahn-Hilliard problem setup.

The operator is the tridiagonal stencil ``(-1, 2, -1)/h^2`` on ``m`` interior
points of an interval with homogeneous Dirichlet ends; its eigenvectors are
the orthonormal sine modes, so applying any scalar function of the operator
reduces to a sine transform, an eigenvalue-wise multiply, and a transform
back.  Inner products carry the quadrature weight ``h`` so that discrete
energies approximate integrals.

``Problem`` bundles the operator with a problem kind:

* ``CahnHilliard(eps, kappa)``: the stiff operator is
  ``eps^2 L^2 + kappa L``, the stabilized nonlinearity
  ``L((1 + kappa) u - u^3)``, and energies/monitoring use the H^{-1} inner
  product ``<u, L^{-1} v>``.
* ``StabilizedSemilinear(kappa, g)``: the stiff operator is ``L + kappa I``
  with nonlinearity ``g(u) + kappa u`` in the plain L^2 setting.

``Problem.g_stabilized`` returns the nonlinearity in sine coefficients, the
form the stage loop works in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.fft

__all__ = [
    "SpectralOperator",
    "build_laplacian_1d",
    "CahnHilliard",
    "StabilizedSemilinear",
    "Problem",
]


class SpectralOperator:
    """Eigen-decomposition of the Dirichlet Laplacian on ``m`` interior points.

    The eigenvectors are the orthonormal sine modes, so the transform to and
    from eigen-coordinates is the orthonormal DST-I (an involution).
    Instances are immutable and thread-safe.
    """

    def __init__(self, length: float, m: int):
        if m < 2:
            raise ValueError(f"need at least 2 interior points, got {m}")
        self.length = float(length)
        self.m = int(m)
        self.h = self.length / (m + 1)
        k = np.arange(1, m + 1)
        self.eigenvalues = (4.0 / self.h**2) * np.sin(k * np.pi / (2.0 * (m + 1))) ** 2
        self.x = self.h * k

    def forward(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of ``v`` in the orthonormal sine basis."""
        return scipy.fft.dst(v, type=1, norm="ortho")

    # the orthonormal sine transform is its own inverse
    inverse = forward

    def apply(self, f: Callable[[np.ndarray], np.ndarray], v: np.ndarray) -> np.ndarray:
        """Apply the operator function ``f(L)`` to ``v`` spectrally."""
        return self.apply_values(f(self.eigenvalues), v)

    def apply_values(self, values: np.ndarray, v: np.ndarray) -> np.ndarray:
        if len(v) != self.m:
            raise ValueError(f"vector length {len(v)} != {self.m}")
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("operator function not finite on the spectrum")
        return self.inverse(values * self.forward(v))

    def apply_stencil(self, v: np.ndarray) -> np.ndarray:
        """Tridiagonal product ``L v`` with Dirichlet ends, in O(m)."""
        out = 2.0 * v
        out[:-1] -= v[1:]
        out[1:] -= v[:-1]
        return out / self.h**2

    def inner(self, u: np.ndarray, v: np.ndarray, metric: str = "l2") -> float:
        """Quadrature-weighted inner product: ``h * sum(u v)`` for ``l2``,
        ``h * sum(u L^{-1} v)`` for ``hminus1``."""
        if metric == "l2":
            return float(self.h * np.dot(u, v))
        if metric == "hminus1":
            return float(self.h * np.dot(self.forward(u), self.forward(v) / self.eigenvalues))
        raise ValueError(f"unknown metric {metric!r}")


def build_laplacian_1d(length: float, m: int) -> SpectralOperator:
    """Dirichlet Laplacian on ``(0, length)`` with ``m`` interior points."""
    return SpectralOperator(length, m)


@dataclass(frozen=True)
class CahnHilliard:
    """Interface width ``eps`` and stabilization ``kappa``; H^{-1} flow."""

    eps: float
    kappa: float


@dataclass(frozen=True)
class StabilizedSemilinear:
    """Shifted semilinear problem ``u' = -(L + kappa) u + g(u) + kappa u``.

    ``potential`` (optional) is the pointwise Lyapunov density ``G`` with
    ``g = -G'``; it is only needed when energies are requested.
    """

    kappa: float
    g: Callable[[np.ndarray], np.ndarray]
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class Problem:
    op: SpectralOperator
    kind: Union[CahnHilliard, StabilizedSemilinear]
    metric_override: Optional[str] = None

    def __post_init__(self):
        mu = self.spectral_shift(self.op.eigenvalues)
        if not np.all(mu > 0):
            raise ValueError("stiff spectral map must be positive on the spectrum")
        if self.metric_override not in (None, "l2", "hminus1"):
            raise ValueError(f"unknown metric {self.metric_override!r}")

    @property
    def metric(self) -> str:
        """Inner product used by energies and stage-law monitoring."""
        if self.metric_override is not None:
            return self.metric_override
        return "hminus1" if isinstance(self.kind, CahnHilliard) else "l2"

    def spectral_shift(self, lam):
        """Eigenvalue map of the stabilized stiff operator."""
        if isinstance(self.kind, CahnHilliard):
            return self.kind.eps**2 * lam**2 + self.kind.kappa * lam
        return lam + self.kind.kappa

    def g_stabilized(self, u: np.ndarray) -> np.ndarray:
        """Sine coefficients (``op.forward``) of the stabilized nonlinearity
        at the physical state ``u``."""
        if isinstance(self.kind, CahnHilliard):
            return self.op.eigenvalues * self.op.forward((1.0 + self.kind.kappa) * u - u * u * u)
        return self.op.forward(self.kind.g(u) + self.kind.kappa * u)

    def energy(self, v: np.ndarray) -> float:
        """Discrete free energy ``(stiff quadratic)/2 + h * sum G(v)``."""
        if isinstance(self.kind, CahnHilliard):
            stiff = 0.5 * self.kind.eps**2 * self.op.inner(v, self.op.apply_stencil(v))
            return stiff + float(self.op.h * np.sum(0.25 * (v**2 - 1.0) ** 2))
        if self.kind.potential is None:
            raise ValueError("semilinear problem has no potential; cannot form an energy")
        stiff = 0.5 * self.op.inner(v, self.op.apply_stencil(v))
        return stiff + float(self.op.h * np.sum(self.kind.potential(v)))

