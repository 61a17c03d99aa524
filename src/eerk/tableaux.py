"""Catalog of explicit exponential Runge-Kutta (EERK) Butcher tableaux.

Every method is its builder: a function of the basis ``P`` of
:func:`eerk.phi.basis` and of the method's abscissas that returns the
abscissas ``c`` and the coefficient rows, each entry ``a_{i+1,j}(z)``
written as in the papers (``P(1) - 1 / c2 * P(2)`` for
``phi_1(z) - phi_2(z)/c2``) and computed as written.  The weight row
``b_j = a_{s+1,j}`` is the last row of ``A``, so downstream analysis needs
no special casing.  Abscissas and rational coefficients are exact
:class:`~fractions.Fraction` values.  A custom tableau is one more such
builder.

The catalog is one table, ``_CATALOG``: each name maps to its builder,
whose parameters after ``P`` are the abscissas the method takes, and to the
one-line description ``eerk catalog`` prints.  Sources: Cox & Matthews (2002) for
ETD2RK (``eerk2`` at ``c2 = 1``), ``etd3rk`` and ``cm4``; Hochbruck &
Ostermann (2005) for ``eerk31``, ``eerk32`` and ``ho4``; Strehmel & Weiner
(1992) for ``eerk2s`` and ``sw4``; Krogstad (2005) for ``krogstad4``;
Celledoni, Marthinsen & Owren (2003) for ``etd2cf3``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from eerk.phi import Coefficient, basis

__all__ = [
    "Tableau",
    "MethodError",
    "catalog",
    "get_method",
    "parse_method",
    "coefficient_matrix",
    "butcher_diff",
]


class MethodError(ValueError):
    """Unknown method name or inadmissible parameters."""


F = Fraction


@dataclass(frozen=True)
class Tableau:
    """Abscissas ``c_1..c_{s+1}`` plus the formula of the lower-triangular
    coefficient rows: ``rows(P)[i]``, on a basis ``P`` of
    :func:`eerk.phi.basis`, holds ``(a_{i+2,1}, ..., a_{i+2,i+1})`` for
    ``0 <= i < s``; the final row is the weight row.  ``c[0] = 0`` and
    ``c[s] = 1``.  The formula is not compared, so one spec gives equal
    tableaux."""

    name: str
    params: tuple
    c: tuple
    rows: Callable = field(compare=False, repr=False)

    @property
    def stages(self) -> int:
        return len(self.c) - 1

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"


def coefficient_matrix(t, z) -> np.ndarray:
    """Evaluate the s x s coefficient matrix at ``z``: shape
    ``z.shape + (s, s)``, so ``(s, s)`` for scalar ``z`` and ``(n, s, s)``
    for an ``(n,)`` array.  Strictly upper entries are zero.  Each distinct
    ``phi_k(c z)`` is evaluated once per call."""
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape + (t.stages, t.stages))
    for i, row in enumerate(t.rows(basis(z))):
        for j, entry in enumerate(row):
            out[..., i, j] = entry.value
    return out


def butcher_diff(t: Tableau) -> Tableau:
    """Difference coefficients, in the same layout: the diagonal is kept, and
    below it each entry has the same-column entry of the previous stage row
    subtracted."""
    def rows(P):
        a = t.rows(P)
        return (a[0],) + tuple(tuple(cur[j] - prev[j] for j in range(i)) + (cur[i],)
                               for i, (prev, cur) in enumerate(zip(a, a[1:]), start=1))
    return Tableau(t.name, t.params, t.c, rows)


# --------------------------------------------------------------------------
# Method builders: (c, rows) from the basis P and the abscissas; a blank
# entry is 0 * P(0, 0)
# --------------------------------------------------------------------------


def _etd1(P):
    return (F(0), F(1)), ((P(1),),)


def _eerk2(P, c2: Fraction):
    return (F(0), c2, F(1)), (
        (c2 * P(1, c2),),
        (P(1) - 1 / c2 * P(2), 1 / c2 * P(2)),
    )


def _eerk2w(P, c2: Fraction):
    return (F(0), c2, F(1)), (
        (c2 * P(1, c2),),
        ((1 - 1 / (2 * c2)) * P(1), 1 / (2 * c2) * P(1)),
    )


def _eerk2s(P, c2: Fraction):
    return (F(0), c2, F(1), F(1)), (
        (c2 * P(1, c2),),
        (P(1) - 1 / c2 * P(2), 1 / c2 * P(2)),
        (P(1) - P(2), 0 * P(0, 0), P(2)),
    )


def _eerk31(P, c2: Fraction):
    c3 = F(2, 3)
    a32 = F(4, 9) / c2 * P(2, c3)
    return (F(0), c2, c3, F(1)), (
        (c2 * P(1, c2),),
        (c3 * P(1, c3) - a32, a32),
        (P(1) - F(3, 2) * P(2), 0 * P(0, 0), F(3, 2) * P(2)),
    )


def _eerk32(P, c2: Fraction, c3: Fraction):
    if c2 == F(2, 3):
        raise MethodError("eerk32 requires c2 != 2/3 (gamma undefined)")
    if c3 == c2:
        raise MethodError("eerk32 requires c3 != c2 (a32 degenerates)")
    if c3 == F(2, 3):
        raise MethodError("eerk32 requires c3 != 2/3 (reduces to eerk31)")
    gamma = (3 * c3 - 2) * c3 / ((2 - 3 * c2) * c2)
    w = gamma * c2 + c3
    a32 = gamma * c2 * P(2, c2) + c3 * c3 / c2 * P(2, c3)
    b2 = gamma / w * P(2)
    b3 = 1 / w * P(2)
    return (F(0), c2, c3, F(1)), (
        (c2 * P(1, c2),),
        (c3 * P(1, c3) - a32, a32),
        (P(1) - b2 - b3, b2, b3),
    )


def _etd3rk(P):
    half = F(1, 2)
    return (F(0), half, F(1), F(1)), (
        (half * P(1, half),),
        (-P(1), 2 * P(1)),
        (4 * P(3) - 3 * P(2) + P(1), -8 * P(3) + 4 * P(2), 4 * P(3) - P(2)),
    )


def _etd2cf3(P):
    c2, c3 = F(1, 3), F(2, 3)
    a32 = F(4, 3) * P(2, c3)
    return (F(0), c2, c3, F(1)), (
        (c2 * P(1, c2),),
        (c3 * P(1, c3) - a32, a32),
        (P(1) - F(9, 2) * P(2) + 9 * P(3), 6 * P(2) - 18 * P(3), -F(3, 2) * P(2) + 9 * P(3)),
    )


def _b_row_4th(P):
    return (P(1) - 3 * P(2) + 4 * P(3), 2 * P(2) - 4 * P(3), 2 * P(2) - 4 * P(3), 4 * P(3) - P(2))


def _cm4(P):
    half = F(1, 2)
    return (F(0), half, half, F(1), F(1)), (
        (half * P(1, half),),
        (0 * P(0, 0), half * P(1, half)),
        (half * P(1, half) * (P(0, half) - P(0, 0)), 0 * P(0, 0), P(1, half)),
        _b_row_4th(P),
    )


def _krogstad4(P):
    half = F(1, 2)
    return (F(0), half, half, F(1), F(1)), (
        (half * P(1, half),),
        (half * P(1, half) - P(2, half), P(2, half)),
        (P(1) - 2 * P(2), 0 * P(0, 0), 2 * P(2)),
        _b_row_4th(P),
    )


def _sw4(P):
    half = F(1, 2)
    return (F(0), half, half, F(1), F(1)), (
        (half * P(1, half),),
        (half * P(1, half) - half * P(2, half), half * P(2, half)),
        (P(1) - 2 * P(2), -2 * P(2), 4 * P(2)),
        (P(1) - 3 * P(2) + 4 * P(3), 0 * P(0, 0), 4 * P(2) - 8 * P(3), 4 * P(3) - P(2)),
    )


def _ho4(P):
    half = F(1, 2)
    a52 = half * P(2, half) - P(3) + F(1, 4) * P(2) - half * P(3, half)
    a54 = F(1, 4) * P(2, half) - a52
    a51 = half * P(1, half) - 2 * a52 - a54
    return (F(0), half, half, F(1), half, F(1)), (
        (half * P(1, half),),
        (half * P(1, half) - P(2, half), P(2, half)),
        (P(1) - 2 * P(2), P(2), P(2)),
        (a51, a52, a52, a54),
        (P(1) - 3 * P(2) + 4 * P(3), 0 * P(0, 0), 0 * P(0, 0), 4 * P(3) - P(2), 4 * P(2) - 8 * P(3)),
    )


#: name -> (builder, one-line description); the builder's parameters after P are
#: the abscissas the method takes, in declaration order
_CATALOG = {
    "etd1": (_etd1, "exponential forward Euler (1 stage)"),
    "eerk2": (_eerk2, "second-order family; c2=1 is ETD2RK (Cox & Matthews)"),
    "eerk2w": (_eerk2w, "weak second-order family"),
    "eerk2s": (_eerk2s, "3-stage second-order method (Strehmel & Weiner)"),
    "eerk31": (_eerk31, "third-order family, c3 fixed at 2/3 (Hochbruck & Ostermann)"),
    "eerk32": (_eerk32, "two-parameter third-order family (Hochbruck & Ostermann)"),
    "etd3rk": (_etd3rk, "3-stage method of Cox & Matthews"),
    "etd2cf3": (_etd2cf3, "commutator-free CF3 variant (Celledoni et al.)"),
    "cm4": (_cm4, "exponential classical RK4 (Cox & Matthews)"),
    "krogstad4": (_krogstad4, "fourth-order method of Krogstad"),
    "sw4": (_sw4, "fourth-order method of Strehmel & Weiner"),
    "ho4": (_ho4, "5-stage stiff-order-4 method (Hochbruck & Ostermann)"),
}


def _params(builder) -> tuple:
    return tuple(inspect.signature(builder).parameters)[1:]  # after the basis P


def catalog() -> list:
    """``(name, parameter names, description)`` of every method, by name."""
    return [(name, _params(builder), text) for name, (builder, text) in sorted(_CATALOG.items())]


def _as_fraction(value) -> Fraction:
    try:
        return Fraction(value)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MethodError(f"cannot parse abscissa {value!r}") from exc


def get_method(name: str, **params) -> Tableau:
    """Build a catalog tableau, e.g. ``get_method("eerk2", c2="1/2")``.

    Abscissas may be given as Fractions, decimal/fraction strings, ints or
    floats; they are stored exactly.  Raises :class:`MethodError` for
    unknown names, wrong parameter sets, an abscissa outside ``(0, 1]`` or
    a coefficient weight outside the float64 range.
    """
    key = name.lower()
    if key not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise MethodError(f"unknown method {name!r} (known: {known})")
    builder = _CATALOG[key][0]
    expected = _params(builder)
    if set(params) != set(expected):
        raise MethodError(f"{key} takes parameters {expected}, got {tuple(params)}")
    abscissas = tuple((p, _as_fraction(params[p])) for p in expected)
    for p, value in abscissas:
        if not 0 < value <= 1:
            raise MethodError(f"{p} must lie in (0, 1], got {value}")
    values = [value for _, value in abscissas]
    try:
        # a dry run on zeros gives c and admits each weight without a phi call
        c, _ = builder(lambda *_: Coefficient(0.0), *values)
    except OverflowError as exc:
        given = ",".join(f"{p}={value}" for p, value in params.items())
        raise MethodError(f"{key}:{given} has a coefficient weight outside the float64 range") from exc
    return Tableau(key, abscissas, c, lambda P: builder(P, *values)[1])


def parse_method(spec: str) -> Tableau:
    """Parse a CLI method spec like ``"eerk32:c2=0.75,c3=0.6"``, each parameter once."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key or not value:
                raise MethodError(f"malformed method spec {spec!r}")
            key = key.strip()
            if key in params:
                raise MethodError(f"method spec {spec!r} repeats parameter {key!r}")
            params[key] = value.strip()
    return get_method(name.strip(), **params)
