"""Energy-dissipation analysis of EERK tableaux.

For a tableau with difference coefficients ``abar`` the discrete orthogonal
convolution (DOC) kernels are the lower-triangular inverse

    theta[k, k] = 1 / abar[k+1, k]
    theta[k, j] = -sum_{l=j+1..k} theta[k, l] * abar[l+1, j] / abar[j+1, j]

satisfying ``sum_{l=j..m} theta[m, l] * abar[l+1, j] = delta_{mj}``.  The
*differentiation matrix* is

    d[k, l] = theta[k, l] + (z/2) * (2 - delta_{kl})        (standard)
    d[k, l] = theta[k, l] + z                               (implicit)

on the lower triangle.  Positive semi-definiteness of the symmetric part
``S = (D + D^T)/2`` certifies that the method dissipates the gradient-flow
energy at every stage, for every step size.  The difference coefficients are
not evaluated on their own: ``abar`` is the evaluated ``A(z)`` with each row
less the row before it, so one evaluation of ``A(z)`` serves both the stage
loop and ``D(z)``.

The scalar ``trace(D)/s`` is the *average dissipation rate* R(z): values
near 1 mean the discrete energy decays at about the continuous rate, larger
values mean a time-"ahead" effect.  It reads only the diagonal of ``D(z)``,
``1/a_{k+1,k}(z) + z/2`` (``+ z`` implicit), which one helper forms from
the diagonal of ``A(z)`` for ``D(z)`` and the rate alike; it stays finite
where entries below it overflow, and one helper averages it.

Classification scans a grid of ``z <= 0``: a method is ``PSD-on-grid`` when
every leading principal minor of ``S`` is nonnegative (up to a
magnitude-aware tolerance) at every grid point, else ``NPD`` with a witness
refined by bisection toward the sign change; a non-finite minor is an error.
One private scan forms ``D(z)`` once and gives the rate, the minors and
their verdicts for the grid and each bisection point, whose rows give the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from eerk.tableaux import Tableau, coefficient_matrix

__all__ = [
    "SingularDiagonalError",
    "doc_kernels",
    "differentiation_matrix",
    "leading_principal_minors",
    "average_dissipation_rate",
    "default_z_grid",
    "Witness",
    "Classification",
    "classify_method",
    "scan_method",
]

VARIANTS = ("standard", "implicit")
_TOL = 1e-9


class SingularDiagonalError(ArithmeticError):
    """``D(z)`` cannot be formed in float64 at some z: a diagonal difference
    coefficient vanished, or a minor of its symmetric part is not finite."""


def _first_zero(diag: np.ndarray, z, label: str) -> None:
    """Raise :class:`SingularDiagonalError` naming the first of the points
    ``z`` at which an entry of ``diag``, shape ``(n, s)`` or ``(s,)``, is 0."""
    zero = np.any(diag == 0.0, axis=-1)
    if np.any(zero):
        z0 = np.ravel(z)[np.argmax(np.ravel(zero))]
        raise SingularDiagonalError(f"{label}: a diagonal coefficient vanishes at z={z0:.6g}")


def _theta_from_abar(abar: np.ndarray, z, label: str) -> np.ndarray:
    s = abar.shape[-1]
    _first_zero(abar[..., range(s), range(s)], z, label)
    theta = np.zeros_like(abar)
    for k in range(s):
        theta[..., k, k] = 1.0 / abar[..., k, k]
        for j in range(k - 1, -1, -1):
            acc = np.zeros_like(theta[..., k, k])
            for l in range(j + 1, k + 1):
                acc += theta[..., k, l] * abar[..., l, j]
            theta[..., k, j] = -acc / abar[..., j, j]
    return theta


def doc_kernels(dt: Tableau, z) -> np.ndarray:
    """DOC kernels of a Butcher-Diff tableau at ``z`` (scalar or array).

    Shape ``(s, s)`` for scalar ``z``, ``(n, s, s)`` for an ``(n,)`` array.
    Raises :class:`SingularDiagonalError` when a diagonal entry vanishes.
    """
    return _theta_from_abar(coefficient_matrix(dt, z), z, dt.label)


def _diagonal(a_diag: np.ndarray, z: np.ndarray, variant: str, label: str) -> np.ndarray:
    """The diagonal of ``D(z)``, ``1/a_{k+1,k} + z`` less ``z/2`` if standard,
    from that of ``A(z)``: the one place it is formed and the variant read."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _first_zero(a_diag, z, label)
    diag = 1.0 / a_diag + z[..., None]
    return diag - z[..., None] / 2.0 if variant == "standard" else diag


def _from_coefficients(a: np.ndarray, z: np.ndarray, variant: str, label: str) -> np.ndarray:
    """``D(z)``, shape ``(n, s, s)``, from the evaluated ``A(z)``, shape
    ``(n, s, s)``, at the ``(n,)`` points ``z``."""
    abar = a.copy()
    abar[..., 1:, :] -= a[..., :-1, :]
    s = a.shape[-1]
    diag = _diagonal(abar[..., range(s), range(s)], z, variant, label)
    d = _theta_from_abar(abar, z, label) + z[..., None, None] * np.tri(s, k=-1)
    d[..., range(s), range(s)] = diag
    return d


def differentiation_matrix(t: Tableau, z, variant: str = "standard") -> np.ndarray:
    """Differentiation matrix ``D(z)`` (or the implicit variant) at ``z``,
    shape ``z.shape + (s, s)``, built from the evaluated ``A(z)`` through
    the DOC recursion."""
    z = np.asarray(z, dtype=float)
    return _from_coefficients(coefficient_matrix(t, z), z, variant, t.label)


def leading_principal_minors(d: np.ndarray) -> np.ndarray:
    """Determinants of the leading blocks of the symmetric part of ``d``.

    Accepts ``(s, s)`` or batched ``(..., s, s)`` input; returns ``(s,)``
    or ``(..., s)``.  Each block determinant is computed independently by
    pivoted LU.
    """
    d = np.asarray(d, dtype=float)
    s = d.shape[-1]
    sym = 0.5 * (d + np.swapaxes(d, -1, -2))
    minors = np.empty(d.shape[:-2] + (s,))
    for j in range(1, s + 1):
        minors[..., j - 1] = np.linalg.det(sym[..., :j, :j])
    return minors


def _rate(diag: np.ndarray):
    """``trace(D)/s`` from the diagonal of ``D``, shape ``(..., s)``.

    The entries are divided by ``p``, the least power of two ``>= s``, before
    they are summed, and the sum by ``s/p``: outside the subnormal range both
    steps are exact scalings, so the bits are those of ``sum/s``, and the sum
    cannot overflow where every entry is finite.
    """
    s = diag.shape[-1]
    p = 2.0 ** (s - 1).bit_length()
    return (diag / p).sum(axis=-1) / (s / p)


def average_dissipation_rate(t: Tableau, z, variant: str = "standard"):
    """``R(z) = trace(D)/s`` of the given variant, shape ``z.shape``, from the
    diagonal of ``A(z)`` alone, with no DOC recursion: finite wherever every
    diagonal entry of ``D`` is, also where entries below it or their sum overflow."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        a_diag = np.diagonal(coefficient_matrix(t, z), axis1=-2, axis2=-1)
        return _rate(_diagonal(a_diag, z, variant, t.label))


def default_z_grid() -> np.ndarray:
    """400 log-spaced points with |z| in [1e-6, 1e4] joined with 400
    linearly spaced points in [-100, 0), ascending."""
    log_part = -np.logspace(-6.0, 4.0, 400)
    lin_part = np.linspace(-100.0, 0.0, 401)[:-1]
    return np.unique(np.concatenate([log_part, lin_part]))


@dataclass(frozen=True)
class Witness:
    z: float
    minor_index: int  # 1-based
    minor_value: float


@dataclass(frozen=True)
class Classification:
    verdict: str  # "PSD-on-grid" | "NPD"
    witness: Optional[Witness]

    @property
    def is_psd(self) -> bool:
        return self.verdict == "PSD-on-grid"


def _scan(t: Tableau, z, variant: str) -> tuple:
    """The rate, the leading principal minors of ``S(D; z)`` and where minor
    ``j`` falls below ``-_TOL * max(1, max_k |S_kk|)^j``: shapes
    ``z.shape``, ``z.shape + (s,)`` and ``z.shape + (s,)``, from one ``D(z)``.

    Raises :class:`SingularDiagonalError` at the first ``z`` where a minor is
    not finite: there ``D`` or its minors have left the float64 range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = differentiation_matrix(t, z, variant)
        minors = leading_principal_minors(d)
        # S and D share their diagonal
        diag = np.diagonal(d, axis1=-2, axis2=-1)
        scale = np.maximum(1.0, np.max(np.abs(diag), axis=-1))
        below = minors < -_TOL * scale[..., None] ** np.arange(1, t.stages + 1)
        rate = _rate(diag)
    finite = np.all(np.isfinite(minors), axis=-1)
    if not np.all(finite):
        z0 = np.ravel(z)[np.argmin(np.ravel(finite))]
        raise SingularDiagonalError(f"{t.label}: a leading principal minor is not finite at z={z0:.6g}")
    return rate, minors, below


def scan_method(t: Tableau, z_grid=None, variant: str = "standard"):
    """Rates, minors and the classification over a sorted grid of
    ``z <= 0``: ``(z, rate, minors, classification)``, the arrays with
    shapes ``(n,)``, ``(n,)``, ``(n, s)`` (one CSV row per grid point), all
    from one ``D(z)``.

    The tolerance scales with the matrix magnitude: minor ``j`` must stay
    above ``-_TOL * max(1, max_k |S_kk|)^j``.  On failure the witness is the
    smallest-|z| violating grid point, sharpened by 20 bisection steps
    toward the adjacent passing point; its minor comes from the scan that
    judged it, the grid's or the last failing midpoint's.  Raises
    :class:`SingularDiagonalError` where a minor is not finite.
    """
    grid = default_z_grid() if z_grid is None else np.sort(np.asarray(z_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("empty z grid")
    if np.any(grid > 0.0):
        raise ValueError("classification grid must satisfy z <= 0")

    rate, minors, below = _scan(t, grid, variant)
    violating = np.any(below, axis=-1)
    if not np.any(violating):
        return grid, rate, minors, Classification("PSD-on-grid", None)

    idx = int(np.max(np.nonzero(violating)[0]))  # ascending grid: largest z
    z_fail, w_minors, w_below = float(grid[idx]), minors[idx], below[idx]
    if idx + 1 < grid.size:
        z_pass = float(grid[idx + 1])
        for _ in range(20):
            mid = 0.5 * (z_fail + z_pass)
            _, mid_minors, mid_below = _scan(t, mid, variant)
            if np.any(mid_below):
                z_fail, w_minors, w_below = mid, mid_minors, mid_below
            else:
                z_pass = mid
    j = int(np.argmax(w_below))  # the first violating minor
    return grid, rate, minors, Classification("NPD", Witness(z_fail, j + 1, float(w_minors[j])))


def classify_method(t: Tableau, z_grid=None, variant: str = "standard") -> Classification:
    """The classification of :func:`scan_method`, without its curves."""
    return scan_method(t, z_grid, variant)[3]
