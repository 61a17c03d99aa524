"""Discrete 1-D Dirichlet Laplacian and the Cahn-Hilliard problem setup.

The operator is the tridiagonal stencil ``(-1, 2, -1)/h^2`` on ``m`` interior
points of an interval with homogeneous Dirichlet ends; its eigenvectors are
the orthonormal sine modes, so any scalar function of the operator is a sine
transform, an eigenvalue-wise multiply, and a transform back.  The transform
is the orthonormal DST-I, computed from a real FFT of the odd extension with
numpy alone.

``Problem`` bundles the operator with a problem kind:

* ``CahnHilliard(eps, kappa)``: the stiff operator is
  ``eps^2 L^2 + kappa L``, the stabilized nonlinearity
  ``L((1 + kappa) u - u^3)``, and energies/monitoring use the H^{-1} inner
  product ``<u, L^{-1} v>``.
* ``StabilizedSemilinear(kappa, g, potential)``: the stiff operator is
  ``L + kappa I`` with nonlinearity ``g(u) + kappa u`` and energy density
  ``potential`` in the plain L^2 setting.

A ``Problem`` fixes its spectral maps once, over the eigenvalues: ``mu``,
those of the stiff operator; ``factor`` (``L`` for Cahn-Hilliard, 1
otherwise), which takes the sine coefficients of ``nonlinearity(u)``, the
physical-space part the stage loop transforms, to those of the stabilized
nonlinearity; and ``weight`` (``h/L`` for H^{-1}, ``h`` for L^2), the
quadrature weight of its inner product in sine coefficients.
``Problem.energy`` takes the stiff part of an energy from sine coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

# the kernel behind np.fft.rfft for even lengths (numpy >= 2.0), without the
# argument handling that costs a third of a 1280-point transform; it
# multiplies its output, which must be given, by its second argument
from numpy.fft._pocketfft_umath import rfft_n_even as _rfft_scaled

__all__ = [
    "SpectralOperator",
    "CahnHilliard",
    "StabilizedSemilinear",
    "Problem",
]


class SpectralOperator:
    """Eigen-decomposition of the Dirichlet Laplacian on ``m`` interior points.

    The eigenvectors are the orthonormal sine modes, so the transform to and
    from eigen-coordinates is the orthonormal DST-I (an involution): the
    real FFT of the odd extension ``[0, v, 0, -reversed(v)]`` of length
    ``2(m + 1)`` is ``-2i sum_n v_n sin(pi k n / (m + 1))`` at frequency
    ``k``, so ``dst_scale`` times its imaginary part gives the coefficients,
    bit for bit as ``scipy.fft.dst(v, type=1, norm="ortho")``.  Instances are
    immutable and thread-safe.

    A caller that transforms many rows keeps buffers from ``odd_buffer`` (odd
    extensions and their body) and ``spectrum_buffer``; ``transform_odd``
    completes and transforms them, and ``forward`` does so on fresh ones.
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
        self.dst_scale = -0.5 * np.sqrt(2.0 / (m + 1))

    def odd_buffer(self, rows: tuple = ()) -> tuple:
        """Zeroed odd extensions, shape ``rows + (2(m+1),)``, and their body."""
        odd = np.zeros(tuple(rows) + (2 * self.m + 2,))
        return odd, odd[..., 1:self.m + 1]

    def spectrum_buffer(self, rows: tuple = ()) -> tuple:
        """Complex output rows for ``transform_odd``, and the view of them
        that then holds the sine coefficients."""
        spectrum = np.zeros(tuple(rows) + (self.m + 2,), dtype=complex)
        return spectrum, spectrum.imag[..., 1:self.m + 1]

    def transform_odd(self, odd: np.ndarray, out: np.ndarray) -> None:
        """Complete the odd extensions ``odd``, writing ``-reversed(body)``
        into their tails, and transform them into the spectrum rows ``out``,
        whose coefficient view then holds their sine coefficients."""
        np.negative(odd[..., 1:self.m + 1], out=odd[..., :self.m + 1:-1])
        _rfft_scaled(odd, self.dst_scale, out=out)

    def forward(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of ``v`` in the orthonormal sine basis, along the last
        axis (the rows of a 2-D ``v`` are transformed separately)."""
        rows = np.shape(v)[:-1]
        odd, body = self.odd_buffer(rows)
        body[...] = v
        spectrum, coefficients = self.spectrum_buffer(rows)
        self.transform_odd(odd, spectrum)
        return coefficients


@dataclass(frozen=True)
class CahnHilliard:
    """Interface width ``eps`` and stabilization ``kappa``; H^{-1} flow."""

    eps: float
    kappa: float


@dataclass(frozen=True)
class StabilizedSemilinear:
    """Shifted semilinear problem ``u' = -(L + kappa) u + g(u) + kappa u``.

    ``potential`` is the pointwise Lyapunov density ``G`` with ``g = -G'``;
    it is required, since every integration records stage energies.
    """

    kappa: float
    g: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Problem:
    op: SpectralOperator
    kind: Union[CahnHilliard, StabilizedSemilinear]
    mu: np.ndarray = field(init=False, repr=False, compare=False)
    factor: Union[np.ndarray, float] = field(init=False, repr=False, compare=False)
    weight: Union[np.ndarray, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam, kind = self.op.eigenvalues, self.kind
        # a non-finite or overflowing eps or kappa makes the map non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(kind, CahnHilliard):
                if not kind.eps >= 0:
                    raise ValueError(f"interface width must be nonnegative, got {kind.eps}")
                # eps * eps overflows to inf where eps**2 raises OverflowError
                mu = kind.eps * kind.eps * lam**2 + kind.kappa * lam
                factor, weight = lam, self.op.h / lam
            else:
                mu = lam + kind.kappa
                factor, weight = 1.0, self.op.h
        if not np.all(np.isfinite(mu) & (mu > 0)):
            raise ValueError("stiff spectral map must be finite and positive on the spectrum")
        for name, value in (("mu", mu), ("factor", factor), ("weight", weight)):
            object.__setattr__(self, name, value)

    def nonlinearity(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Physical-space part of the stabilized nonlinearity at the state
        ``u``: ``(1 + kappa) u - u^3`` for Cahn-Hilliard, ``g(u) + kappa u``
        otherwise.  Written into ``out`` when given."""
        if isinstance(self.kind, CahnHilliard):
            out = np.multiply(u, u, out=out)
            np.subtract(1.0 + self.kind.kappa, out, out=out)
            return np.multiply(out, u, out=out)
        return np.add(self.kind.g(u), self.kind.kappa * u, out=out)

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
        else:
            scale, bulk = 1.0, np.sum(self.kind.potential(v), axis=-1)
        v_hat = self.op.forward(v) if v_hat is None else v_hat
        stiff = np.einsum("...m,...m,m->...", v_hat, v_hat, self.op.eigenvalues)
        energy = self.op.h * (0.5 * scale * stiff + bulk)
        return float(energy) if np.ndim(energy) == 0 else energy
