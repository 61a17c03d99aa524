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
form the stage loop works in, and ``Problem.energy`` takes the stiff part of
an energy from the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.fftpack

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
        """Coefficients of ``v`` in the orthonormal sine basis, along the last
        axis (the rows of a 2-D ``v`` are transformed separately)."""
        # scipy.fftpack runs the pocketfft kernel of scipy.fft.dst, bit for
        # bit, without the backend dispatch that costs more than the kernel
        return scipy.fftpack.dst(v, type=1, norm="ortho")

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
        if isinstance(self.kind, CahnHilliard) and not self.kind.eps >= 0:
            raise ValueError(f"interface width must be nonnegative, got {self.kind.eps}")
        # a non-finite or overflowing eps or kappa makes the map non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            mu = self.spectral_shift(self.op.eigenvalues)
        if not np.all(np.isfinite(mu) & (mu > 0)):
            raise ValueError("stiff spectral map must be finite and positive on the spectrum")
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
            # eps * eps overflows to inf where eps**2 raises OverflowError
            return self.kind.eps * self.kind.eps * lam**2 + self.kind.kappa * lam
        return lam + self.kind.kappa

    def g_stabilized(self, u: np.ndarray) -> np.ndarray:
        """Sine coefficients (``op.forward``) of the stabilized nonlinearity
        at the physical state ``u``."""
        if isinstance(self.kind, CahnHilliard):
            return self.op.eigenvalues * self.op.forward((1.0 + self.kind.kappa) * u - u * u * u)
        return self.op.forward(self.kind.g(u) + self.kind.kappa * u)

    def energy(self, v: np.ndarray, v_hat: Optional[np.ndarray] = None):
        """Discrete free energy ``(stiff quadratic)/2 + h * sum G(v)``.

        The stiff quadratic ``h * sum c lam v_hat^2`` (``c = eps^2`` for
        Cahn-Hilliard, 1 otherwise) comes from the sine coefficients
        ``v_hat = op.forward(v)``, computed when not given.  The rows of a
        2-D ``v`` are separate states; a 1-D ``v`` gives a float.
        """
        if isinstance(self.kind, CahnHilliard):
            w = v * v - 1.0  # G(v) = w^2 / 4
            scale, bulk = self.kind.eps * self.kind.eps, 0.25 * np.einsum("...m,...m->...", w, w)
        elif self.kind.potential is None:
            raise ValueError("semilinear problem has no potential; cannot form an energy")
        else:
            scale, bulk = 1.0, np.sum(self.kind.potential(v), axis=-1)
        v_hat = self.op.forward(v) if v_hat is None else v_hat
        stiff = np.einsum("...m,...m,m->...", v_hat, v_hat, self.op.eigenvalues)
        energy = self.op.h * (0.5 * scale * stiff + bulk)
        return float(energy) if np.ndim(energy) == 0 else energy
