"""Tests for the EERK tableau catalog and coefficient identities."""

import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from mpmath import mp

from eerk.dissipation import default_z_grid
from eerk.phi import phi
from eerk.tableaux import (
    MethodError,
    coefficient_matrix,
    get_method,
    parse_method,
)
from oracles import (
    DIGITS,
    basis_60,
    basis_exact,
    butcher_diff,
    verify_order_conditions,
    verify_row_sums,
)

Z_SET = np.array([-1e-4, -0.1, -1.0, -10.0, -100.0, -1e4])

ALL_METHODS = [
    ("etd1", {}),
    ("eerk2", {"c2": "1/2"}),
    ("eerk2", {"c2": "3/4"}),
    ("eerk2", {"c2": 1}),
    ("eerk2w", {"c2": "3/11"}),
    ("eerk2w", {"c2": "1/2"}),
    ("eerk2s", {"c2": "3/4"}),
    ("eerk31", {"c2": "4/9"}),
    ("eerk31", {"c2": "2/3"}),
    ("eerk32", {"c2": 1, "c3": "1/2"}),
    ("eerk32", {"c2": "3/4", "c3": "3/5"}),
    ("eerk32", {"c2": "1/2", "c3": "7/10"}),
    ("etd3rk", {}),
    ("etd2cf3", {}),
    ("cm4", {}),
    ("krogstad4", {}),
    ("sw4", {}),
    ("ho4", {}),
]


def catalog():
    return [get_method(name, **params) for name, params in ALL_METHODS]


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------


def test_etd1_is_single_phi1():
    t = get_method("etd1")
    assert t.stages == 1
    a = coefficient_matrix(t, -3.0)
    assert a[0, 0] == pytest.approx(phi(1, -3.0), rel=1e-15)


@pytest.mark.parametrize("z", [-0.3, -2.0, -25.0])
def test_eerk2_with_unit_abscissa_is_etd2rk(z):
    t = get_method("eerk2", c2=1)
    a = coefficient_matrix(t, z)
    assert a[0, 0] == pytest.approx(phi(1, z), rel=1e-14)
    assert a[1, 0] == pytest.approx(phi(1, z) - phi(2, z), rel=1e-14)
    assert a[1, 1] == pytest.approx(phi(2, z), rel=1e-14)


@pytest.mark.parametrize("z", [-0.7, -12.0])
def test_eerk31_third_row(z):
    t = get_method("eerk31", c2="4/9")
    a = coefficient_matrix(t, z)
    # with c2 = 4/9 the phi_2 weight 4/(9 c2) collapses to 1
    assert a[1, 1] == pytest.approx(phi(2, 2 * z / 3), rel=1e-14)
    assert a[1, 0] == pytest.approx((2 / 3) * phi(1, 2 * z / 3) - phi(2, 2 * z / 3), rel=1e-13)
    assert a[0, 0] == pytest.approx((4 / 9) * phi(1, 4 * z / 9), rel=1e-14)


@pytest.mark.parametrize("z", [-0.5, -8.0])
def test_cm4_product_entry(z):
    a = coefficient_matrix(get_method("cm4"), z)
    expected = 0.5 * phi(1, z / 2) * (np.exp(z / 2) - 1.0)
    assert a[2, 0] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("z", [-0.5, -8.0])
def test_ho4_derived_entries(z):
    a = coefficient_matrix(get_method("ho4"), z)
    a52 = 0.5 * phi(2, z / 2) - phi(3, z) + 0.25 * phi(2, z) - 0.5 * phi(3, z / 2)
    assert a[3, 1] == pytest.approx(a52, rel=1e-12, abs=1e-15)
    assert a[3, 2] == pytest.approx(a52, rel=1e-12, abs=1e-15)
    assert a[3, 3] == pytest.approx(0.25 * phi(2, z / 2) - a52, rel=1e-12, abs=1e-15)


def test_coefficients_evaluate_in_their_written_order():
    # each entry is its formula's phi arithmetic, term by term from the left
    # with a multiply only for a weight other than 1, so A(z) is pinned to
    # the bit
    z = default_z_grid()
    a = coefficient_matrix(get_method("ho4"), z)
    a52 = 0.5 * phi(2, 0.5 * z) - phi(3, z) + 0.25 * phi(2, z) - 0.5 * phi(3, 0.5 * z)
    a54 = 0.25 * phi(2, 0.5 * z) - a52
    assert np.array_equal(a[:, 3, 0], 0.5 * phi(1, 0.5 * z) - 2.0 * a52 - a54)
    assert np.array_equal(a[:, 3, 3], a54)
    c2, c3 = F(1, 2), F(7, 10)
    gamma = (3 * c3 - 2) * c3 / ((2 - 3 * c2) * c2)
    w = gamma * c2 + c3
    a = coefficient_matrix(get_method("eerk32", c2=c2, c3=c3), z)
    want = phi(1, z) - float(gamma / w) * phi(2, z) - float(1 / w) * phi(2, z)
    assert np.array_equal(a[:, 2, 0], want)
    a = coefficient_matrix(get_method("cm4"), z)
    assert np.array_equal(a[:, 2, 0], 0.5 * phi(1, 0.5 * z) * (phi(0, 0.5 * z) - 1.0))


@pytest.mark.parametrize("spec,calls", [
    ("ho4", 6), ("cm4", 5), ("eerk32:c2=1/2,c3=7/10", 6), ("eerk31:c2=4/9", 5),
    ("eerk2w:c2=3/11", 2)])
def test_each_basis_function_is_evaluated_once(spec, calls, monkeypatch):
    # one phi call per distinct phi_k(c z) with c > 0, and none for a
    # constant, however often a formula repeats it
    seen = []
    monkeypatch.setattr(sys.modules["eerk.phi"], "phi", lambda k, z: seen.append(k) or phi(k, z))
    coefficient_matrix(parse_method(spec), default_z_grid())
    assert len(seen) == calls


def test_coefficient_matrix_batched_matches_scalar():
    t = get_method("eerk32", c2="3/4", c3="3/5")
    batch = coefficient_matrix(t, Z_SET)
    for idx, z in enumerate(Z_SET):
        assert np.array_equal(batch[idx], coefficient_matrix(t, float(z)))


# the worst relative error of each catalog method's A(z) over its nonzero
# entries on z = -logspace(-8, 8, 97), against 60 digits, measured and
# rounded up: an upper bound that a less accurate evaluation breaks
A_ERROR_BOUNDS = {
    "etd1": 2.2e-16,
    "eerk2:c2=1/2": 5e-8,
    "eerk2w:c2=3/11": 3.3e-16,
    "eerk2s:c2=3/4": 7e-9,
    "eerk31:c2=4/9": 5e-14,
    "eerk32:c2=1,c3=1/2": 1.4e-14,
    "etd3rk": 2.1e-8,
    "etd2cf3": 1e-7,
    "cm4": 2.1e-8,
    "krogstad4": 5.3e-8,
    "sw4": 5e-8,
    "ho4": 5.3e-8,
}


@pytest.mark.parametrize("spec,bound", A_ERROR_BOUNDS.items(), ids=list(A_ERROR_BOUNDS))
def test_coefficient_matrix_matches_60_digits(spec, bound):
    t = parse_method(spec)
    z = -np.logspace(-8, 8, 97)
    a = coefficient_matrix(t, z)
    worst = 0.0
    with mp.workdps(DIGITS):
        for zn, an in zip(z, a):
            for i, row in enumerate(t.rows(basis_60(zn))):
                for j, entry in enumerate(row):
                    if entry.value:
                        worst = max(worst, float(abs(an[i, j] / entry.value - 1)))
                    else:
                        assert an[i, j] == 0, (zn, i, j)
    assert worst <= bound


# --------------------------------------------------------------------------
# Butcher-Diff
# --------------------------------------------------------------------------


def test_butcher_diff_etd1_unchanged():
    t = get_method("etd1")
    d = butcher_diff(t)
    assert coefficient_matrix(d, -2.0) == pytest.approx(coefficient_matrix(t, -2.0))


@pytest.mark.parametrize("c2", [F(1, 2), F(3, 4), F(1)])
@pytest.mark.parametrize("z", [-0.25, -5.0])
def test_butcher_diff_eerk2_closed_form(c2, z):
    d = coefficient_matrix(butcher_diff(get_method("eerk2", c2=c2)), z)
    c2f = float(c2)
    assert d[0, 0] == pytest.approx(c2f * phi(1, c2f * z), rel=1e-14)
    assert d[1, 0] == pytest.approx(
        phi(1, z) - phi(2, z) / c2f - c2f * phi(1, c2f * z), rel=1e-13, abs=1e-15)
    assert d[1, 1] == pytest.approx(phi(2, z) / c2f, rel=1e-14)


@pytest.mark.parametrize("z", [-0.25, -5.0])
def test_butcher_diff_eerk2s_weight_row(z):
    c2 = 0.75
    d = coefficient_matrix(butcher_diff(get_method("eerk2s", c2="3/4")), z)
    assert d[2, 0] == pytest.approx((1 - c2) / c2 * phi(2, z), rel=1e-14)
    assert d[2, 1] == pytest.approx(-phi(2, z) / c2, rel=1e-14)
    assert d[2, 2] == pytest.approx(phi(2, z), rel=1e-14)


def test_diff_reconstruction_recovers_tableau():
    # cumulative row sums down each column invert the difference transform
    for t in catalog():
        a = coefficient_matrix(t, Z_SET)
        d = coefficient_matrix(butcher_diff(t), Z_SET)
        rebuilt = np.cumsum(d, axis=-2)
        assert np.max(np.abs(rebuilt - a)) < 1e-13 * max(1.0, np.max(np.abs(a)))


# --------------------------------------------------------------------------
# Row sums / equilibria, diagonal positivity
# --------------------------------------------------------------------------


def test_row_sums_all_methods():
    for t in catalog():
        rep = verify_row_sums(t, Z_SET, tol=1e-11)
        assert rep.passed, (t.label, rep)


def test_row_sum_etd3rk_weight_row():
    a = coefficient_matrix(get_method("etd3rk"), -1.0)
    assert abs(a[2].sum() - phi(1, -1.0)) < 1e-12


def test_row_sum_cm4_fourth_row_identity():
    # (1/2) phi_1(z/2) (exp(z/2) + 1) collapses to phi_1(z)
    z = -10.0
    a = coefficient_matrix(get_method("cm4"), z)
    direct = 0.5 * phi(1, z / 2) * (np.exp(z / 2) + 1.0)
    assert abs(a[2, :3].sum() - direct) < 1e-12
    assert abs(direct - phi(1, z)) < 1e-12


def test_row_sums_tend_to_abscissas_near_zero():
    z = -1e-10
    for t in catalog():
        a = coefficient_matrix(t, z)
        for i in range(t.stages):
            assert a[i, : i + 1].sum() == pytest.approx(float(t.c[i + 1]), abs=1e-9)


def test_diagonal_positive_for_nonpositive_z():
    grid = -np.logspace(-6, 4, 200)
    for t in catalog():
        a = coefficient_matrix(t, grid)
        diag = a[:, range(t.stages), range(t.stages)]
        assert np.all(diag > 0.0), t.label


def test_weight_row_sums_to_one_at_zero():
    for t in catalog():
        a0 = coefficient_matrix(t, 0.0)
        assert a0[-1].sum() == pytest.approx(1.0, abs=1e-14)


# --------------------------------------------------------------------------
# Order conditions
# --------------------------------------------------------------------------

GRID = -np.logspace(-3, 2, 40)


def statuses(t, order):
    return {c.name: c.status for c in verify_order_conditions(t, order, GRID)}


def test_eerk2_all_strict():
    assert set(statuses(get_method("eerk2", c2="3/4"), 2).values()) == {"strict"}


def test_eerk2w_second_condition_weak():
    st = statuses(get_method("eerk2w", c2="1/2"), 2)
    assert st["weights_abscissa_phi2"] == "weak"
    assert st["weights_phi1"] == "strict"
    assert st["second_stage_consistency"] == "strict"


def test_eerk2s_order_two_strict():
    assert set(statuses(get_method("eerk2s", c2="3/4"), 2).values()) == {"strict"}


def test_etd3rk_coupling_condition_weak():
    # The phi_3 weight condition holds identically for this tableau (the
    # quarter/four factors cancel); only the operator-coupling condition
    # degenerates to z = 0.
    st = statuses(get_method("etd3rk"), 3)
    assert st["weights_abscissa_sq_phi3"] == "strict"
    assert st["stage_defect_orthogonality"] == "weak"
    assert all(v == "strict" for k, v in st.items() if k != "stage_defect_orthogonality")
    checks = {c.name: c for c in verify_order_conditions(get_method("etd3rk"), 3, GRID)}
    weak = checks["stage_defect_orthogonality"]
    assert weak.residual_origin < 1e-12
    assert weak.max_residual > 1e-9


def test_etd2cf3_coupling_condition_weak():
    st = statuses(get_method("etd2cf3"), 3)
    assert st["stage_defect_orthogonality"] == "weak"
    assert all(v == "strict" for k, v in st.items() if k != "stage_defect_orthogonality")


def test_eerk31_strict_except_phi3_weight():
    st = statuses(get_method("eerk31", c2="4/9"), 3)
    assert st["weights_abscissa_sq_phi3"] == "weak"
    assert all(v == "strict" for k, v in st.items() if k != "weights_abscissa_sq_phi3")


def test_order_condition_shape_errors():
    with pytest.raises(MethodError):
        verify_order_conditions(get_method("cm4"), 3, GRID)
    with pytest.raises(MethodError):
        verify_order_conditions(get_method("eerk2", c2=1), 3, GRID)


# --------------------------------------------------------------------------
# Exact conditions: the builders on sympy expressions in z
# --------------------------------------------------------------------------

Z = sympy.Symbol("z")

#: psi_1..psi_4 of each catalog method: 0 an identity in z, w true only at
#: z = 0, x false at z = 0.  The w in psi_4 of eerk32:c2=1,c3=1/2 is
#: Simpson's rule: its weights at z = 0 are 1/6, 1/6 and 2/3 at c = 0, 1, 1/2.
QUADRATURE = {
    "etd1": "0xxx",
    "eerk2:c2=1/2": "00xx",
    "eerk2w:c2=3/11": "0wxx",
    "eerk2s:c2=3/4": "00xx",
    "eerk31:c2=4/9": "00wx",
    "eerk32:c2=1,c3=1/2": "00ww",
    "etd3rk": "000w",
    "etd2cf3": "000x",
    "cm4": "000w",
    "krogstad4": "000w",
    "sw4": "000w",
    "ho4": "000w",
}


def _is_identity_zero(expr) -> bool:
    # a sum of z^k e^{cz} terms, whose distinct (k, c) are linearly
    # independent, so it is identically 0 iff it expands to 0
    return sympy.expand(expr) == 0


def test_exact_row_sums_are_the_abscissa_equilibria():
    # criterion 3 as an identity in z
    for spec in QUADRATURE:
        t = parse_method(spec)
        for i, row in enumerate(t.rows(basis_exact(Z))):
            target = (sympy.exp(sympy.Rational(t.c[i + 1]) * Z) - 1) / Z
            assert _is_identity_zero(sum(e.value for e in row) - target), (spec, i + 1)


def test_exact_quadrature_conditions_are_pinned():
    # psi_j = sum_i b_i c_i^(j-1)/(j-1)! - phi_j(z), j = 1..4
    P = basis_exact(Z)
    for spec, pinned in QUADRATURE.items():
        t = parse_method(spec)
        b = [e.value for e in t.rows(P)[-1]]
        c = [sympy.Rational(ci) for ci in t.c[:-1]]
        kinds = ""
        for j in range(1, 5):
            psi = sum(bi * ci ** (j - 1) for bi, ci in zip(b, c)) / math.factorial(j - 1) - P(j).value
            if _is_identity_zero(psi):
                kinds += "0"
            else:
                kinds += "w" if sympy.limit(psi, Z, 0) == 0 else "x"
        assert kinds == pinned, spec


# --------------------------------------------------------------------------
# Parameter validation and parsing
# --------------------------------------------------------------------------


def test_eerk32_degenerate_parameters():
    with pytest.raises(MethodError):
        get_method("eerk32", c2="2/3", c3="1/2")
    with pytest.raises(MethodError):
        get_method("eerk32", c2="1/2", c3="1/2")
    with pytest.raises(MethodError):
        get_method("eerk32", c2="3/4", c3="2/3")


def test_abscissa_domain():
    with pytest.raises(MethodError):
        get_method("eerk2", c2=0)
    for value in (float("nan"), float("inf"), None, "1/0"):
        with pytest.raises(MethodError, match="cannot parse abscissa"):
            get_method("eerk2", c2=value)
    with pytest.raises(MethodError):
        get_method("eerk2", c2="5/4")
    with pytest.raises(MethodError):
        get_method("eerk31", c2=-1)


@pytest.mark.parametrize("name,params", [
    ("eerk2", {"c2": "1e-400"}), ("eerk2w", {"c2": "1e-310"}), ("eerk2s", {"c2": "1e-309"}),
    ("eerk31", {"c2": "1e-320"}), ("eerk32", {"c2": "1/2", "c3": "1e-400"})])
def test_weight_beyond_float64_is_a_method_error(name, params, monkeypatch):
    # admitted when the tableau is built, without evaluating a phi function,
    # and refused under its abscissas as given
    given = {"eerk2": "eerk2:c2=1e-400", "eerk2w": "eerk2w:c2=1e-310", "eerk2s": "eerk2s:c2=1e-309",
             "eerk31": "eerk31:c2=1e-320", "eerk32": "eerk32:c2=1/2,c3=1e-400"}[name]
    monkeypatch.setattr(sys.modules["eerk.phi"], "phi", None)
    with pytest.raises(MethodError) as exc:
        get_method(name, **params)
    assert str(exc.value) == f"{given} has a coefficient weight outside the float64 range"


def test_parse_method_rejects_a_repeated_parameter():
    with pytest.raises(MethodError, match=r"^method spec 'eerk2:c2=1, c2 =1/2' repeats parameter 'c2'$"):
        parse_method("eerk2:c2=1, c2 =1/2")
    with pytest.raises(MethodError, match="repeats parameter 'c3'"):
        parse_method("eerk32:c2=1/2,c3=1,c3=1/2")


def test_unknown_method_and_bad_params():
    with pytest.raises(MethodError):
        get_method("rk4")
    with pytest.raises(MethodError):
        get_method("etd1", c2=1)
    with pytest.raises(MethodError):
        get_method("eerk2")


def test_parse_method_specs():
    t = parse_method("eerk2:c2=0.5")
    assert t.params == (("c2", F(1, 2)),)
    assert t.label == "eerk2:c2=1/2"
    t = parse_method("eerk32:c2=0.75,c3=0.6")
    assert t.params == (("c2", F(3, 4)), ("c3", F(3, 5)))
    assert parse_method("cm4").label == "cm4"
    with pytest.raises(MethodError):
        parse_method("eerk2:c2")
    with pytest.raises(MethodError):
        parse_method("eerk2:c2=abc")
