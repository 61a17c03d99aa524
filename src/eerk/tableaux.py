"""Catalog of explicit exponential Runge-Kutta (EERK) Butcher tableaux.

Every tableau is stored symbolically: entry ``(i, j)`` of the coefficient
matrix ``A`` is the function ``a_{i+1,j}(z)`` as a :data:`~eerk.phi.PhiExpr`
tree, with the weight row ``b_j = a_{s+1,j}`` stored as the last row of
``A`` so downstream analysis needs no special casing.  Abscissas and
rational coefficients are exact :class:`~fractions.Fraction` values.

The catalog is one table, ``_CATALOG``: each name maps to its builder,
whose parameters are the abscissas the method takes, and to the one-line
description ``eerk catalog`` prints.  Sources: Cox & Matthews (2002) for
ETD2RK (``eerk2`` at ``c2 = 1``), ``etd3rk`` and ``cm4``; Hochbruck &
Ostermann (2005) for ``eerk31``, ``eerk32`` and ``ho4``; Strehmel & Weiner
(1992) for ``eerk2s`` and ``sw4``; Krogstad (2005) for ``krogstad4``;
Celledoni, Marthinsen & Owren (2003) for ``etd2cf3``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from eerk.phi import Const, Negate, Phi, PhiExpr, Product, Sum, evaluate

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
    """Unknown method name or inadmissible abscissa parameters."""


F = Fraction
_ZERO = Const(F(0))


def _cp(coeff, order, scale=F(1)) -> PhiExpr:
    """coeff * phi_order(scale * z), collapsing a unit coefficient."""
    coeff = coeff if isinstance(coeff, Fraction) else F(coeff)
    if coeff == 1:
        return Phi(order, scale)
    return Product((Const(coeff), Phi(order, scale)))


def _add(*terms) -> PhiExpr:
    return Sum(tuple(terms))


def _sub(a, b) -> PhiExpr:
    return Sum((a, Negate(b)))


@dataclass(frozen=True)
class Tableau:
    """Abscissas ``c_1..c_{s+1}`` plus the lower-triangular coefficient rows.

    ``rows[i]`` holds ``(a_{i+2,1}, ..., a_{i+2,i+1})`` for ``0 <= i < s``;
    the final row is the weight row.  ``c[0] = 0`` and ``c[s] = 1``.
    """

    name: str
    params: tuple = ()
    c: tuple = ()
    rows: tuple = ()

    @property
    def stages(self) -> int:
        return len(self.rows)

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"


def coefficient_matrix(t, z) -> np.ndarray:
    """Evaluate the s x s coefficient matrix at ``z``: shape
    ``z.shape + (s, s)``, so ``(s, s)`` for scalar ``z`` and ``(n, s, s)``
    for an ``(n,)`` array.  Strictly upper entries are zero."""
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.shape + (t.stages, t.stages))
    for i, row in enumerate(t.rows):
        for j, entry in enumerate(row):
            out[..., i, j] = evaluate(entry, z)
    return out


def butcher_diff(t: Tableau) -> Tableau:
    """Difference coefficients, in the same layout: the diagonal is kept, and
    below it each entry has the same-column entry of the previous stage row
    subtracted."""
    rows = [t.rows[0]]
    for i in range(1, t.stages):
        prev, cur = t.rows[i - 1], t.rows[i]
        row = tuple(_sub(cur[j], prev[j]) for j in range(i)) + (cur[i],)
        rows.append(row)
    return Tableau(name=t.name, params=t.params, c=t.c, rows=tuple(rows))


# --------------------------------------------------------------------------
# Method builders
# --------------------------------------------------------------------------


def _check_abscissa(name, value):
    if not (0 < value <= 1):
        raise MethodError(f"{name} must lie in (0, 1], got {value}")


def _etd1() -> Tableau:
    return Tableau("etd1", (), (F(0), F(1)), ((Phi(1),),))


def _eerk2(c2: Fraction) -> Tableau:
    _check_abscissa("c2", c2)
    rows = (
        (_cp(c2, 1, c2),),
        (_sub(Phi(1), _cp(1 / c2, 2)), _cp(1 / c2, 2)),
    )
    return Tableau("eerk2", (("c2", c2),), (F(0), c2, F(1)), rows)


def _eerk2w(c2: Fraction) -> Tableau:
    _check_abscissa("c2", c2)
    rows = (
        (_cp(c2, 1, c2),),
        (_cp(1 - 1 / (2 * c2), 1), _cp(1 / (2 * c2), 1)),
    )
    return Tableau("eerk2w", (("c2", c2),), (F(0), c2, F(1)), rows)


def _eerk2s(c2: Fraction) -> Tableau:
    _check_abscissa("c2", c2)
    rows = (
        (_cp(c2, 1, c2),),
        (_sub(Phi(1), _cp(1 / c2, 2)), _cp(1 / c2, 2)),
        (_sub(Phi(1), Phi(2)), _ZERO, Phi(2)),
    )
    return Tableau("eerk2s", (("c2", c2),), (F(0), c2, F(1), F(1)), rows)


def _eerk31(c2: Fraction) -> Tableau:
    _check_abscissa("c2", c2)
    c3 = F(2, 3)
    rows = (
        (_cp(c2, 1, c2),),
        (_sub(_cp(c3, 1, c3), _cp(F(4, 9) / c2, 2, c3)), _cp(F(4, 9) / c2, 2, c3)),
        (_sub(Phi(1), _cp(F(3, 2), 2)), _ZERO, _cp(F(3, 2), 2)),
    )
    return Tableau("eerk31", (("c2", c2),), (F(0), c2, c3, F(1)), rows)


def _eerk32(c2: Fraction, c3: Fraction) -> Tableau:
    _check_abscissa("c2", c2)
    _check_abscissa("c3", c3)
    if c2 == F(2, 3):
        raise MethodError("eerk32 requires c2 != 2/3 (gamma undefined)")
    if c3 == c2:
        raise MethodError("eerk32 requires c3 != c2 (a32 degenerates)")
    if c3 == F(2, 3):
        raise MethodError("eerk32 requires c3 != 2/3 (reduces to eerk31)")
    gamma = (3 * c3 - 2) * c3 / ((2 - 3 * c2) * c2)
    w = gamma * c2 + c3
    a32 = _add(_cp(gamma * c2, 2, c2), _cp(c3 * c3 / c2, 2, c3))
    b2 = _cp(gamma / w, 2)
    b3 = _cp(1 / w, 2)
    rows = (
        (_cp(c2, 1, c2),),
        (_sub(_cp(c3, 1, c3), a32), a32),
        (Sum((Phi(1), Negate(b2), Negate(b3))), b2, b3),
    )
    return Tableau("eerk32", (("c2", c2), ("c3", c3)), (F(0), c2, c3, F(1)), rows)


def _etd3rk() -> Tableau:
    half = F(1, 2)
    rows = (
        (_cp(half, 1, half),),
        (Negate(Phi(1)), _cp(2, 1)),
        (
            _add(_cp(4, 3), _cp(-3, 2), Phi(1)),
            _add(_cp(-8, 3), _cp(4, 2)),
            _sub(_cp(4, 3), Phi(2)),
        ),
    )
    return Tableau("etd3rk", (), (F(0), half, F(1), F(1)), rows)


def _etd2cf3() -> Tableau:
    c2, c3 = F(1, 3), F(2, 3)
    a32 = _cp(F(4, 3), 2, c3)
    rows = (
        (_cp(c2, 1, c2),),
        (_sub(_cp(c3, 1, c3), a32), a32),
        (
            _add(Phi(1), _cp(F(-9, 2), 2), _cp(9, 3)),
            _sub(_cp(6, 2), _cp(18, 3)),
            _add(_cp(F(-3, 2), 2), _cp(9, 3)),
        ),
    )
    return Tableau("etd2cf3", (), (F(0), c2, c3, F(1)), rows)


_B_ROW_4TH = (
    _add(Phi(1), _cp(-3, 2), _cp(4, 3)),
    _sub(_cp(2, 2), _cp(4, 3)),
    _sub(_cp(2, 2), _cp(4, 3)),
    _sub(_cp(4, 3), Phi(2)),
)


def _cm4() -> Tableau:
    half = F(1, 2)
    rows = (
        (_cp(half, 1, half),),
        (_ZERO, _cp(half, 1, half)),
        (
            Product((Const(half), Phi(1, half), Sum((Phi(0, half), Const(F(-1)))))),
            _ZERO,
            Phi(1, half),
        ),
        _B_ROW_4TH,
    )
    return Tableau("cm4", (), (F(0), half, half, F(1), F(1)), rows)


def _krogstad4() -> Tableau:
    half = F(1, 2)
    rows = (
        (_cp(half, 1, half),),
        (_sub(_cp(half, 1, half), Phi(2, half)), Phi(2, half)),
        (_sub(Phi(1), _cp(2, 2)), _ZERO, _cp(2, 2)),
        _B_ROW_4TH,
    )
    return Tableau("krogstad4", (), (F(0), half, half, F(1), F(1)), rows)


def _sw4() -> Tableau:
    half = F(1, 2)
    rows = (
        (_cp(half, 1, half),),
        (_sub(_cp(half, 1, half), _cp(half, 2, half)), _cp(half, 2, half)),
        (_sub(Phi(1), _cp(2, 2)), _cp(-2, 2), _cp(4, 2)),
        (
            _add(Phi(1), _cp(-3, 2), _cp(4, 3)),
            _ZERO,
            _sub(_cp(4, 2), _cp(8, 3)),
            _sub(_cp(4, 3), Phi(2)),
        ),
    )
    return Tableau("sw4", (), (F(0), half, half, F(1), F(1)), rows)


def _ho4() -> Tableau:
    half = F(1, 2)
    a52 = _add(_cp(half, 2, half), Negate(Phi(3)), _cp(F(1, 4), 2), Negate(_cp(half, 3, half)))
    a54 = _sub(_cp(F(1, 4), 2, half), a52)
    a51 = Sum((_cp(half, 1, half), Negate(Product((Const(F(2)), a52))), Negate(a54)))
    rows = (
        (_cp(half, 1, half),),
        (_sub(_cp(half, 1, half), Phi(2, half)), Phi(2, half)),
        (_sub(Phi(1), _cp(2, 2)), Phi(2), Phi(2)),
        (a51, a52, a52, a54),
        (
            _add(Phi(1), _cp(-3, 2), _cp(4, 3)),
            _ZERO,
            _ZERO,
            _sub(_cp(4, 3), Phi(2)),
            _sub(_cp(4, 2), _cp(8, 3)),
        ),
    )
    return Tableau("ho4", (), (F(0), half, half, F(1), half, F(1)), rows)


#: name -> (builder, one-line description); the builder's parameters are
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
    return tuple(inspect.signature(builder).parameters)


def catalog() -> list:
    """``(name, parameter names, description)`` of every method, by name."""
    return [(name, _params(builder), text) for name, (builder, text) in sorted(_CATALOG.items())]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MethodError(f"cannot parse abscissa {value!r}") from exc
    return Fraction(value)


def get_method(name: str, **params) -> Tableau:
    """Build a catalog tableau, e.g. ``get_method("eerk2", c2="1/2")``.

    Abscissas may be given as Fractions, decimal/fraction strings, ints or
    floats; they are stored exactly.  Raises :class:`MethodError` for
    unknown names, wrong parameter sets or inadmissible abscissas.
    """
    key = name.lower()
    if key not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise MethodError(f"unknown method {name!r} (known: {known})")
    builder = _CATALOG[key][0]
    expected = _params(builder)
    if set(params) != set(expected):
        raise MethodError(f"{key} takes parameters {expected}, got {tuple(params)}")
    return builder(*[_as_fraction(params[p]) for p in expected])


def parse_method(spec: str) -> Tableau:
    """Parse a CLI method spec like ``"eerk32:c2=0.75,c3=0.6"``."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key or not value:
                raise MethodError(f"malformed method spec {spec!r}")
            params[key.strip()] = value.strip()
    return get_method(name.strip(), **params)
