"""Second routes for tests only, built on public names alone.

Spectral operator: ``scipy.fft.dst`` transforms here, so a result built
from these helpers does not share its sine transform with
``SpectralOperator.forward``, and the stencil product and quadrature inner
product take no transform at all.

phi: the Taylor series of ``phi_k`` summed until every term is at most
1e-18 of its running sum, a stopping rule checked after each term.

Tableaux and differentiation matrices: the symbolic Butcher-Diff tableau,
whose rows are the differences of the method's coefficient formulas, so its
difference coefficients do not come from the library's row-differenced
``A(z)``; ``D(z)`` through a linear solve with ``A(z)`` instead of the DOC
recursion, the average dissipation rate in closed form from the diagonal of
``A(z)``, the residual of the DOC identity against the Butcher-Diff tableau,
the row-sum (equilibria) identity through ``expm1``, the stiff
order-condition residuals, and the large-|z| rate condition of the
two-parameter third-order family in closed form.

60 digits: an mpmath basis that runs the library's builders unchanged, with
``phi_k(x) = x^-k (e^x - sum_{j<k} x^j/j!)`` where ``|x| >= 1``, the series
``sum_n x^n/(n+k)!`` below, and each ``Fraction`` weight taken as
``mpf(p)/q``; ``D(z)`` from it through the DOC recursion, its rate, and the
leading principal minors of its symmetric part by ``mp.det``.

Exact: the sympy twin of that basis, ``phi_k(c z)`` by the same identity
as an expression in a symbol ``z`` and each weight a ``Rational``, so the
builders give ``A(z)`` in closed form; sympy is imported only by it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.fft
from mpmath import mp, mpf

from eerk.dissipation import doc_kernels
from eerk.phi import phi
from eerk.spatial import SpectralOperator
from eerk.tableaux import MethodError, Tableau, coefficient_matrix


def phi_taylor_adaptive(k: int, z: np.ndarray) -> np.ndarray:
    """The Taylor series of ``phi_k`` at the points ``z``, ``|z| < max(1, k)``,
    summed until every point's last term is at most 1e-18 of its sum (at
    most 200 terms)."""
    acc = np.full(z.shape, 1.0 / math.factorial(k))
    term = acc.copy()
    for m in range(1, 200):
        term = term * z / (m + k)
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    return acc


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
    return problem.factor * _dst(problem.nonlinearity(u))


# --------------------------------------------------------------------------
# Differentiation matrices and DOC kernels
# --------------------------------------------------------------------------


def differentiation_matrix_inverse_route(t: Tableau, z, variant: str = "standard") -> np.ndarray:
    """``A(z)^{-1} E + z E - (z/2) I`` (standard) or ``A^{-1} E + z E``, with
    ``E`` the lower-triangular matrix of ones."""
    if variant not in ("standard", "implicit"):
        raise ValueError(f"unknown variant {variant!r}")
    scalar = np.isscalar(z)
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    a = coefficient_matrix(t, zarr)
    s = t.stages
    ones_lower = np.tri(s)
    theta = np.linalg.solve(a, np.broadcast_to(ones_lower, a.shape).copy())
    zz = zarr[..., None, None]
    d = theta + zz * ones_lower
    if variant == "standard":
        d = d - (zz / 2.0) * np.eye(s)
    return d[0] if scalar else d


def average_dissipation_rate_closed_form(t: Tableau, z, variant: str = "standard") -> np.ndarray:
    """``z/2 + mean_i 1/a_{i+1,i}(z)`` (standard) or ``z + mean`` (implicit)
    from the diagonal of ``A(z)``, which the difference coefficients share,
    without forming ``D``."""
    zarr = np.asarray(z, dtype=float)
    diag = np.diagonal(coefficient_matrix(t, zarr), axis1=-2, axis2=-1)
    shift = 0.5 if variant == "standard" else 1.0
    return shift * zarr + np.mean(1.0 / diag, axis=-1)


def butcher_diff(t: Tableau) -> Tableau:
    """Difference coefficients, in the same layout: the diagonal is kept, and
    below it each entry has the same-column entry of the previous stage row
    subtracted."""
    def rows(P):
        a = t.rows(P)
        return (a[0],) + tuple(tuple(cur[j] - prev[j] for j in range(i)) + (cur[i],)
                               for i, (prev, cur) in enumerate(zip(a, a[1:]), start=1))
    return Tableau(t.name, t.params, t.c, rows)


def doc_identity_residual(t: Tableau, z) -> float:
    """Max elementwise residual of ``Theta @ Abar = I`` at ``z``, with the
    library's DOC kernels ``Theta`` and ``Abar`` from the Butcher-Diff
    tableau."""
    abar = coefficient_matrix(butcher_diff(t), z)
    theta = doc_kernels(t, z)
    eye = np.eye(abar.shape[-1])
    return float(np.max(np.abs(theta @ abar - eye)))


def eerk32_abscissa_condition(c2, c3) -> float:
    """Necessary large-|z| rate condition for the two-parameter third-order
    family: nonnegative return means ``R(z)`` stays nonnegative as
    ``z -> -inf``.
    """
    c2 = float(Fraction(c2) if isinstance(c2, str) else c2)
    c3 = float(Fraction(c3) if isinstance(c3, str) else c3)
    if c2 == 2.0 / 3.0 or c3 == c2 or c3 == 0.0:
        raise ValueError("degenerate abscissas: need c2 != 2/3, c3 != c2, c3 != 0")
    return (6.0 * c3 * (c2 - c3) / (3.0 * c2 - 2.0)
            - 1.0
            + 2.0 * c2 * (3.0 * c2 - 2.0) / (3.0 * c3 * (c2 - c3)))


# --------------------------------------------------------------------------
# Coefficient identity checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RowSumReport:
    max_deviation: float
    passed: bool
    worst_z: float
    worst_row: int
    tolerance: float


def verify_row_sums(t: Tableau, z_grid, tol: float = 1e-11) -> RowSumReport:
    """Check the equilibria identity: row ``i`` of ``A(z)`` must sum to
    ``(exp(c_{i+1} z) - 1)/z`` for every ``z`` in the grid.

    The right-hand side is evaluated through ``expm1``, independently of the
    phi-function code path.
    """
    zarr = np.asarray(z_grid, dtype=float)
    a = coefficient_matrix(t, zarr)
    worst = 0.0
    worst_z, worst_row = float(zarr.flat[0]), 1
    for i in range(t.stages):
        target = np.expm1(float(t.c[i + 1]) * zarr) / zarr
        dev = np.abs(a[..., i, : i + 1].sum(axis=-1) - target)
        idx = int(np.argmax(dev))
        if dev[idx] > worst:
            worst, worst_z, worst_row = float(dev[idx]), float(zarr[idx]), i + 1
    return RowSumReport(worst, worst <= tol, worst_z, worst_row, tol)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual_origin: float
    max_residual: float
    status: str  # "strict" | "weak" | "failed"


def _classify(origin: float, worst: float, tol: float) -> str:
    if worst <= tol:
        return "strict"
    if origin <= tol:
        return "weak"
    return "failed"


def verify_order_conditions(t: Tableau, target_order: int, z_grid, tol: float = 1e-12):
    """Evaluate stiff order-condition residuals on a grid of ``z`` values.

    A condition is *strict* when its residual stays below ``tol`` on the
    whole grid, *weak* when it only holds at ``z = 0`` (residuals there
    below ``tol`` but orders of magnitude above it on the grid), and
    *failed* otherwise.  The coupling condition that quantifies over an
    arbitrary bounded operator is checked with that operator taken as the
    scalar identity.

    Supported: two-stage methods at order 2, three-stage methods at order 2
    (the first four conditions) or 3 (all six).
    """
    zarr = np.concatenate([[0.0], np.asarray(z_grid, dtype=float)])
    a = coefficient_matrix(t, zarr)
    s = t.stages
    c = [float(v) for v in t.c]
    p1 = phi(1, zarr)
    p2 = phi(2, zarr)

    if s == 2 and target_order == 2:
        residuals = [
            ("weights_phi1", a[:, 1, 0] + a[:, 1, 1] - p1),
            ("weights_abscissa_phi2", a[:, 1, 1] * c[1] - p2),
            ("second_stage_consistency", a[:, 0, 0] - c[1] * phi(1, float(t.c[1]) * zarr)),
        ]
    elif s == 3 and target_order in (2, 3):
        b = a[:, 2, :]
        residuals = [
            ("weights_phi1", b[:, 0] + b[:, 1] + b[:, 2] - p1),
            ("weights_abscissa_phi2", b[:, 1] * c[1] + b[:, 2] * c[2] - p2),
            ("second_stage_consistency", a[:, 0, 0] - c[1] * phi(1, float(t.c[1]) * zarr)),
            ("third_stage_consistency", a[:, 1, 0] + a[:, 1, 1] - c[2] * phi(1, float(t.c[2]) * zarr)),
        ]
        if target_order == 3:
            p3 = phi(3, zarr)
            psi23 = c[2] ** 2 * phi(2, float(t.c[2]) * zarr) - c[1] * a[:, 1, 1]
            residuals += [
                ("weights_abscissa_sq_phi3", b[:, 1] * c[1] ** 2 + b[:, 2] * c[2] ** 2 - 2 * p3),
                ("stage_defect_orthogonality",
                 b[:, 1] * c[1] ** 2 * phi(2, float(t.c[1]) * zarr) + b[:, 2] * psi23),
            ]
    else:
        raise MethodError(
            f"order-condition check supports 2-stage order 2 and 3-stage order 2/3; "
            f"got {s} stages at order {target_order}"
        )

    checks = []
    for name, r in residuals:
        origin = float(np.abs(r[0]))
        worst = float(np.max(np.abs(r)))
        checks.append(ConditionCheck(name, origin, worst, _classify(origin, worst, tol)))
    return checks


# --------------------------------------------------------------------------
# 60-digit A(z), D(z), minors and rates
# --------------------------------------------------------------------------

DIGITS = 60


class _Mp:
    """A 60-digit coefficient value: ``+``, ``-``, ``*`` and exact ``int`` or
    ``Fraction`` weights ``p/q``, taken as ``mpf(p)/q``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    @staticmethod
    def weight(w: Fraction):
        return mpf(w.numerator) / w.denominator

    def __add__(self, other):
        return type(self)(self.value + other.value)

    def __sub__(self, other):
        return type(self)(self.value - other.value)

    def __neg__(self):
        return type(self)(-self.value)

    def __mul__(self, other):
        if isinstance(other, _Mp):
            return type(self)(self.value * other.value)
        if isinstance(other, (int, Fraction)):
            return type(self)(self.weight(Fraction(other)) * self.value)
        return NotImplemented

    __rmul__ = __mul__


def _phi_mp(k: int, x):
    """``phi_k(x)`` at the working precision: the exact identity where
    ``|x| >= 1``, the series below, summed to half an ulp of its sum."""
    if abs(x) >= 1:
        return (mp.exp(x) - sum(x**j / mp.factorial(j) for j in range(k))) / x**k
    term = acc = 1 / mp.factorial(k)
    n = 0
    while abs(term) > mp.eps * abs(acc) / 2:
        n += 1
        term = term * x / (n + k)
        acc += term
    return acc


def basis_60(z):
    """The mpmath twin of ``eerk.phi.basis`` at the point ``z``: ``P(k, c)``
    is ``phi_k(c z)`` as a 60-digit value (evaluate it under
    ``mp.workdps(DIGITS)``)."""
    z = mpf(z)
    memo = {}

    def P(k: int, c=1) -> _Mp:
        if (k, c) not in memo:
            memo[k, c] = _Mp(_phi_mp(k, _Mp.weight(Fraction(c)) * z))
        return memo[k, c]

    return P


def _differentiation_matrix_60(t: Tableau, z, variant: str):
    # A(z) from the builders, Abar row by row, theta = Abar^-1 by the DOC
    # recursion, then the z terms of the variant
    s = t.stages
    a = mp.zeros(s, s)
    for i, row in enumerate(t.rows(basis_60(z))):
        for j, entry in enumerate(row):
            a[i, j] = entry.value
    abar = a.copy()
    for i in range(1, s):
        for j in range(s):
            abar[i, j] = a[i, j] - a[i - 1, j]
    theta = mp.zeros(s, s)
    for k in range(s):
        theta[k, k] = 1 / abar[k, k]
        for j in range(k - 1, -1, -1):
            theta[k, j] = -sum(theta[k, l] * abar[l, j] for l in range(j + 1, k + 1)) / abar[j, j]
    z = mpf(z)
    d = theta.copy()
    for k in range(s):
        for j in range(k):
            d[k, j] += z
        d[k, k] += z / 2 if variant == "standard" else z
    return d


def leading_minors_60(t: Tableau, z, variant: str = "standard") -> list:
    """The leading principal minors of ``(D + D^T)/2`` at the float ``z``,
    to 60 digits."""
    with mp.workdps(DIGITS):
        d = _differentiation_matrix_60(t, z, variant)
        sym = (d + d.T) / 2
        return [mp.det(sym[:j, :j]) for j in range(1, t.stages + 1)]


def average_dissipation_rate_60(t: Tableau, z, variant: str = "standard"):
    """``trace(D(z))/s`` at the float ``z``, to 60 digits."""
    with mp.workdps(DIGITS):
        d = _differentiation_matrix_60(t, z, variant)
        return sum(d[k, k] for k in range(t.stages)) / t.stages


# --------------------------------------------------------------------------
# Exact A(z): sympy expressions in z
# --------------------------------------------------------------------------


class _Exact(_Mp):
    """An exact coefficient value: a sympy expression, with ``int`` or
    ``Fraction`` weights ``p/q`` taken as ``Rational(p, q)``."""

    __slots__ = ()

    @staticmethod
    def weight(w: Fraction):
        import sympy

        return sympy.Rational(w)


def basis_exact(z):
    """The symbolic twin of ``basis_60``: ``P(k, c)`` is ``phi_k(c z)`` as a
    sympy expression in the symbol ``z``, ``x^-k (e^x - sum_{j<k} x^j/j!)``
    with ``x = c z``, and ``P(k, 0) = 1/k!``.  sympy is imported here, so a
    module that imports this one needs none."""
    import sympy

    def P(k: int, c=1) -> _Exact:
        x = _Exact.weight(Fraction(c)) * z
        if x == 0:
            return _Exact(sympy.Rational(1, math.factorial(k)))
        return _Exact((sympy.exp(x) - sum(x**j / math.factorial(j) for j in range(k))) / x**k)

    return P
