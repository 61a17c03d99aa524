"""Tests for DOC kernels, differentiation matrices, minors and rates."""

import numpy as np
import pytest

import eerk.dissipation as dissipation
from eerk.phi import phi
from eerk.dissipation import (
    VARIANTS,
    Classification,
    SingularDiagonalError,
    average_dissipation_rate,
    classify_method,
    default_z_grid,
    differentiation_matrix,
    doc_kernels,
    leading_principal_minors,
    scan_method,
    _rate,
    _scan,
)
from eerk.tableaux import coefficient_matrix, get_method, parse_method
from oracles import (
    average_dissipation_rate_60,
    average_dissipation_rate_closed_form,
    butcher_diff,
    differentiation_matrix_inverse_route,
    doc_identity_residual,
    eerk32_abscissa_condition,
    leading_minors_60,
)

Z_SET = np.array([-0.01, -0.1, -1.0, -10.0, -100.0])

CATALOG = [
    ("etd1", {}),
    ("eerk2", {"c2": "1/2"}),
    ("eerk2", {"c2": 1}),
    ("eerk2w", {"c2": "3/11"}),
    ("eerk2s", {"c2": "3/4"}),
    ("eerk31", {"c2": "4/9"}),
    ("eerk32", {"c2": 1, "c3": "1/2"}),
    ("etd3rk", {}),
    ("etd2cf3", {}),
    ("cm4", {}),
    ("krogstad4", {}),
    ("sw4", {}),
    ("ho4", {}),
]


# --------------------------------------------------------------------------
# DOC kernels
# --------------------------------------------------------------------------


def test_doc_kernels_etd1():
    th = doc_kernels(get_method("etd1"), -3.0)
    assert th[0, 0] == pytest.approx(1.0 / phi(1, -3.0), rel=1e-14)


@pytest.mark.parametrize("z", [-0.5, -7.0])
def test_doc_kernels_eerk2_closed_form(z):
    c2 = 0.75
    th = doc_kernels(get_method("eerk2", c2="3/4"), z)
    assert th[0, 0] == pytest.approx(1.0 / (c2 * phi(1, c2 * z)), rel=1e-13)
    assert th[1, 1] == pytest.approx(c2 / phi(2, z), rel=1e-13)
    expected = (c2 * phi(1, c2 * z) - phi(1, z) + phi(2, z) / c2) / (phi(2, z) * phi(1, c2 * z))
    assert th[1, 0] == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_doc_orthogonality_all_methods():
    for name, params in CATALOG:
        resid = doc_identity_residual(get_method(name, **params), Z_SET)
        assert resid <= 1e-10, (name, resid)


def test_doc_kernels_reject_zero_diagonal():
    # the five-stage method's fourth diagonal entry vanishes at z = 0
    with pytest.raises(SingularDiagonalError, match="^ho4: .* at z=0$"):
        doc_kernels(get_method("ho4"), 0.0)


def test_diagonal_is_scanned_for_zeros_once(monkeypatch):
    # D(z) and the DOC kernels each check the diagonal of abar once
    calls = []
    first_zero = dissipation._first_zero

    def counting(*args):
        calls.append(args)
        return first_zero(*args)

    monkeypatch.setattr(dissipation, "_first_zero", counting)
    grid = default_z_grid()
    for name, params in CATALOG:
        t = get_method(name, **params)
        for variant in VARIANTS:
            calls.clear()
            differentiation_matrix(t, grid, variant)
            assert len(calls) == 1, (name, variant)
        calls.clear()
        doc_kernels(t, grid)
        assert len(calls) == 1, name


# --------------------------------------------------------------------------
# Differentiation matrices
# --------------------------------------------------------------------------


def test_etd1_diag_closed_form_and_lower_bound():
    t = get_method("etd1")
    grid = -np.logspace(-6, 2.5, 200)  # exp(-z) overflows past ~709
    d = differentiation_matrix(t, grid)[:, 0, 0]
    # 1 - exp(-z) through expm1, else the oracle itself cancels near zero
    closed = grid * (1 + np.exp(-grid)) / (-2 * np.expm1(-grid))
    assert np.max(np.abs(d - closed) / np.abs(closed)) < 1e-13
    assert np.all(d >= 1.0 - 1e-12)
    assert differentiation_matrix(t, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("z", [-0.4, -15.0])
def test_eerk31_first_column_closed_form(z):
    c2 = 4.0 / 9.0
    d = differentiation_matrix(get_method("eerk31", c2="4/9"), z)
    assert d[0, 0] == pytest.approx(1.0 / (c2 * phi(1, c2 * z)) + z / 2, rel=1e-13)
    d21 = (9 * c2 / (4 * phi(2, 2 * z / 3))
           + 1.0 / (c2 * phi(1, c2 * z))
           - 3 * phi(1, 2 * z / 3) / (2 * phi(2, 2 * z / 3) * phi(1, c2 * z))
           + z)
    assert d[1, 0] == pytest.approx(d21, rel=1e-12, abs=1e-13)
    d31 = ((2 * c2 * phi(1, c2 * z) - 2 * phi(1, z) + 3 * phi(2, z))
           / (3 * c2 * phi(1, c2 * z) * phi(2, z)) + z)
    assert d[2, 0] == pytest.approx(d31, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("z", [-2.0])
def test_implicit_variant_etd2rk_entry(z):
    d = differentiation_matrix(get_method("eerk2", c2=1), z, variant="implicit")
    assert d[0, 0] == pytest.approx(1.0 / phi(1, z) + z, rel=1e-13)


def test_two_route_equality_all_methods():
    for name, params in CATALOG:
        t = get_method(name, **params)
        d1 = differentiation_matrix(t, Z_SET)
        d2 = differentiation_matrix_inverse_route(t, Z_SET)
        assert np.max(np.abs(d1 - d2)) <= 1e-10, name
        # implicit variant routes agree as well
        d1i = differentiation_matrix(t, Z_SET, variant="implicit")
        d2i = differentiation_matrix_inverse_route(t, Z_SET, variant="implicit")
        assert np.max(np.abs(d1i - d2i)) <= 1e-10, name


def _symbolic_route(t, z, variant):
    # D from the DOC kernels of the symbolic Butcher-Diff tableau: its abar
    # owes nothing to the library's row differencing
    abar = coefficient_matrix(butcher_diff(t), z)
    zz, s = z[:, None, None], t.stages
    dissipation._first_zero(abar[..., range(s), range(s)], z, t.label)
    theta = dissipation._theta_from_abar(abar)
    d = theta + zz * np.tri(s)
    return d - (zz / 2.0) * np.eye(s) if variant == "standard" else d


def _outcome(route, *args):
    try:
        return route(*args)
    except SingularDiagonalError as exc:
        return str(exc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["standard", "implicit"])
def test_one_route_equals_symbolic_route_bit_for_bit(variant):
    # D differences the evaluated A(z); the symbolic route evaluates the
    # Butcher-Diff tableau on its own.  Sign bits included, they agree; where
    # a diagonal vanishes (ho4 at -1e-300 and 0) both raise the same error.
    grids = [default_z_grid(), -np.logspace(-8, 8, 2001)] + [np.array([z]) for z in (-6.9e6, -1e-300, 0.0)]
    for name, params in CATALOG:
        t = get_method(name, **params)
        for grid in grids:
            one = _outcome(differentiation_matrix, t, grid, variant)
            other = _outcome(_symbolic_route, t, grid, variant)
            if isinstance(one, str) or isinstance(other, str):
                assert isinstance(one, str) and isinstance(other, str) and one == other, (name, grid)
                continue
            assert np.array_equal(one, other), (name, grid[0])
            assert np.array_equal(np.signbit(one), np.signbit(other)), (name, grid[0])


def test_lower_triangular_structure():
    d = differentiation_matrix(get_method("cm4"), -3.0)
    assert np.array_equal(np.triu(d, 1), np.zeros_like(d))


def test_variant_relation():
    t = get_method("eerk31", c2="4/9")
    for z in [-0.5, -40.0]:
        gap = (differentiation_matrix(t, z, "implicit") - differentiation_matrix(t, z)
               - (z / 2) * np.eye(3))
        assert np.max(np.abs(gap)) < 1e-12 * max(1.0, abs(z))


# --------------------------------------------------------------------------
# Minors
# --------------------------------------------------------------------------


def test_minors_identity():
    assert leading_principal_minors(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])


def test_minors_symmetrize_first():
    # minors are taken of (D + D^T)/2, not of D
    d = np.array([[2.0, 0.0], [4.0, 1.0]])
    assert leading_principal_minors(d) == pytest.approx([2.0, 2.0 - 4.0])


def test_eerk2_first_minor_closed_form():
    c2 = 0.75
    grid = -np.logspace(-6, 2.5, 150)
    m = leading_principal_minors(differentiation_matrix(get_method("eerk2", c2="3/4"), grid))
    closed = grid * (np.exp(c2 * grid) + 1) / (2 * (np.exp(c2 * grid) - 1))
    assert np.max(np.abs(m[:, 0] - closed)) < 1e-10
    assert np.all(m[:, 0] >= 1.0 / c2 - 1e-12)


@pytest.mark.parametrize("z", [-0.3, -4.0, -20.0])
def test_eerk2w_second_minor_matches_auxiliary_function(z):
    # independent oracle: the closed-form z^2 g(c2,z) / (4 (e^z-1)^2 (e^{c2 z}-1)^2)
    c2 = 0.5
    g = (-4 * c2**2 * (np.exp(c2 * z) - np.exp(z)) ** 2
         + 4 * c2 * (1 - np.exp(z)) * (1 - np.exp(c2 * z + z))
         - (1 - np.exp(z)) ** 2)
    expected = z**2 * g / (4 * (np.exp(z) - 1) ** 2 * (np.exp(c2 * z) - 1) ** 2)
    got = leading_principal_minors(differentiation_matrix(get_method("eerk2w", c2="1/2"), z))[1]
    assert got == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------


def test_default_grid_shape():
    grid = default_z_grid()
    assert grid.size == 800
    assert grid[0] == pytest.approx(-1e4) and grid[-1] == pytest.approx(-1e-6)
    assert np.all(np.diff(grid) > 0) and np.all(grid < 0)


@pytest.mark.parametrize("name,params", [
    ("etd1", {}),
    ("eerk2", {"c2": "1/2"}), ("eerk2", {"c2": "3/4"}), ("eerk2", {"c2": 1}),
    ("eerk2w", {"c2": "3/11"}),
    ("eerk2s", {"c2": "1/2"}), ("eerk2s", {"c2": 1}),
    ("eerk31", {"c2": "4/9"}),
    ("eerk32", {"c2": 1, "c3": "1/2"}),
    ("eerk2w", {"c2": "2554/10000"}),
])
def test_psd_methods(name, params):
    assert classify_method(get_method(name, **params)).is_psd


@pytest.mark.parametrize("name", ["etd3rk", "etd2cf3", "cm4", "krogstad4", "sw4", "ho4"])
def test_npd_methods_have_witness(name):
    c = classify_method(get_method(name))
    assert c.verdict == "NPD"
    assert c.witness is not None and c.witness.z < 0
    assert c.witness.minor_value < 0


# witnesses on the default grid: (method, variant, z, minor index, value)
NPD_WITNESSES = [
    ("etd3rk", "standard", -1e-06, 3, -8.874991968755397),
    ("etd2cf3", "standard", -6.006928558219965, 3, -1.6718602150980398e-07),
    ("cm4", "standard", -1e-06, 4, -0.7499972500017177),
    ("krogstad4", "standard", -1e-06, 4, -0.7499937083367759),
    ("sw4", "standard", -1e-06, 3, -8.750002142565901e-07),
    ("ho4", "standard", -0.003277527820439235, 4, -739420810.8010744),
    ("etd3rk", "implicit", -1e-06, 3, -8.874997187503583),
    ("etd2cf3", "implicit", -1.2238625585322263, 3, -4.530596507125704e-08),
    ("cm4", "implicit", -1e-06, 4, -0.7500074999967791),
    ("krogstad4", "implicit", -1e-06, 4, -0.7500039583328195),
    ("sw4", "implicit", -1e-06, 3, -4.812498516529633e-06),
    ("ho4", "implicit", -0.003280952999481525, 4, -736341293.7357333),
]


@pytest.mark.parametrize("name,variant,z,index,value", NPD_WITNESSES,
                         ids=[f"{w[0]}-{w[1]}" for w in NPD_WITNESSES])
def test_npd_witness_is_pinned(name, variant, z, index, value):
    w = classify_method(get_method(name), variant=variant).witness
    assert w.minor_index == index
    assert w.z == pytest.approx(z, rel=1e-12, abs=0)
    assert w.minor_value == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("name,variant", [w[:2] for w in NPD_WITNESSES]
                         + [("eerk2:c2=2/5", "standard"), ("eerk2w:c2=2553/10000", "implicit")])
def test_npd_witness_is_a_fresh_scan_of_its_z(name, variant):
    # the witness is read from the scan that judged it (the grid row or the
    # last failing bisection point); scanning its z afresh gives it bit for bit
    t = parse_method(name)
    w = scan_method(t, variant=variant)[3].witness
    _, minors, below = _scan(t, w.z, variant)
    j = int(np.argmax(below))
    assert below[j] and (w.minor_index, w.minor_value) == (j + 1, minors[j])


# the NPD catalog methods and specs just past the family thresholds, some of
# whose witnesses come from bisection, where the witness minor is small
WITNESS_SPECS = ["etd3rk", "etd2cf3", "cm4", "krogstad4", "sw4", "ho4", "eerk2:c2=2/5",
                 "eerk2:c2=499/1000", "eerk2w:c2=2553/10000", "eerk2w:c2=1/5", "eerk2w:c2=1/4",
                 "eerk31:c2=2/5"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("spec", WITNESS_SPECS)
def test_npd_witness_has_a_negative_60_digit_minor(spec, variant):
    # an NPD verdict stands on its witness: the same minor of the same
    # method at the same z, to 60 digits, is negative too; the float minor
    # is within 1.3e-7 relative of it here, also where it is 1e-8 small
    t = parse_method(spec)
    w = scan_method(t, variant=variant)[3].witness
    exact = leading_minors_60(t, w.z, variant)[w.minor_index - 1]
    assert exact < 0
    assert abs(w.minor_value - exact) <= 2e-7 * abs(exact)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["cm4", "krogstad4", "sw4", "etd2cf3"])
def test_classify_rejects_non_finite_minors(name):
    # the minors of S leave the float64 range: they are inf or nan there, and
    # a comparison with them must not read as a pass, nor be written as a curve
    grid = np.linspace(-1e160, -1e150, 3)
    for analysis in (classify_method, scan_method):
        with pytest.raises(SingularDiagonalError, match=f"{name}: .* z=-1e\\+160"):
            analysis(get_method(name), z_grid=grid)


def test_etd2cf3_witness_below_minus_six():
    c = classify_method(get_method("etd2cf3"))
    assert c.witness.z < -6.0


def test_etd3rk_third_minor_negative_near_zero():
    # negative determinant survives all the way to z -> 0^-
    c = classify_method(get_method("etd3rk"))
    assert c.witness.z > -1e-3
    assert c.witness.minor_index == 3


@pytest.mark.parametrize("name,c2", [("eerk2", "2/5"), ("eerk2w", "2553/10000")],
                         ids=["eerk2", "eerk2w"])
def test_eerk2_below_abscissa_threshold_is_npd(name, c2):
    # eerk2w turns PSD on the default grid between 2553/10000 and 2554/10000
    c = classify_method(get_method(name, c2=c2))
    assert c.verdict == "NPD"
    assert c.witness.minor_index == 2


# the catalog on the default grid, and out to 1e8 three implicit methods,
# whose diagonal 1/a + z cancels terms as large as |z|
_FAR_IMPLICIT = [("etd1", {}), ("eerk2", {"c2": 1}), ("eerk2w", {"c2": "1/2"})]
_EIGEN_CASES = ([(n, p, v, "default") for n, p in CATALOG for v in VARIANTS]
                + [(n, p, "implicit", "far") for n, p in _FAR_IMPLICIT])


@pytest.mark.parametrize("name,params,variant,grid", _EIGEN_CASES,
                         ids=[f"{n}{p}-{v}-{g}" for n, p, v, g in _EIGEN_CASES])
def test_minor_verdict_matches_smallest_eigenvalue(name, params, variant, grid):
    # nonnegative leading minors alone do not make S semidefinite: PSD where
    # the smallest eigenvalue of S stays above a rounding bound of the terms
    # that form it, at every grid point, must be the minors' verdict too
    t = get_method(name, **params)
    z = default_z_grid() if grid == "default" else -np.logspace(8, 4, 401)
    d = differentiation_matrix(t, z, variant)
    lam = np.linalg.eigvalsh(0.5 * (d + np.swapaxes(d, -1, -2)))[..., 0]
    size = np.max(np.abs(np.diagonal(d, axis1=-2, axis2=-1)), axis=-1) + np.abs(z)
    psd = np.all(lam >= -8 * t.stages * np.finfo(float).eps * size)
    assert classify_method(t, z, variant).verdict == ("PSD-on-grid" if psd else "NPD")
    assert psd or grid == "default"


def test_unknown_variant_is_rejected():
    t = get_method("eerk2", c2="1/2")
    for call in (differentiation_matrix, average_dissipation_rate, classify_method, scan_method):
        with pytest.raises(ValueError, match="variant must be one of"):
            call(t, Z_SET, "explicit")


def test_classify_rejects_bad_grids():
    t = get_method("etd1")
    for scan in (classify_method, scan_method):
        with pytest.raises(ValueError):
            scan(t, z_grid=[])
        with pytest.raises(ValueError):
            scan(t, z_grid=[-1.0, 0.5])


# --------------------------------------------------------------------------
# Average dissipation rate
# --------------------------------------------------------------------------


def test_rate_limits_near_zero():
    z0 = -1e-8
    for c2s, c2 in [("1/2", 0.5), ("3/4", 0.75), ("1", 1.0)]:
        r = average_dissipation_rate(get_method("eerk2", c2=c2s), z0)
        assert r == pytest.approx(1 / (2 * c2) + c2, abs=1e-6)
        rw = average_dissipation_rate(get_method("eerk2w", c2=c2s), z0)
        assert rw == pytest.approx(1 / (2 * c2) + c2, abs=1e-6)
        rs = average_dissipation_rate(get_method("eerk2s", c2=c2s), z0)
        assert rs == pytest.approx(2 / 3 + (2 / 3) * (c2 + 1 / (2 * c2)), abs=1e-6)
    for c2s, c2 in [("4/9", 4 / 9), ("1", 1.0)]:
        r = average_dissipation_rate(get_method("eerk31", c2=c2s), z0)
        assert r == pytest.approx(1.5 * c2 + 1 / (3 * c2) + 4 / 9, abs=1e-6)
    assert average_dissipation_rate(get_method("etd1"), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_rate_equals_scaled_trace():
    # trace(D)/s against its closed form from the diagonal of A(z)
    grid = np.array([-1e-4, -0.37, -3.0, -55.0, -4e3])
    for name, params in CATALOG:
        t = get_method(name, **params)
        for variant in ("standard", "implicit"):
            r = average_dissipation_rate(t, grid, variant)
            closed = average_dissipation_rate_closed_form(t, grid, variant)
            assert np.max(np.abs(r - closed)) < 1e-12 * np.max(np.abs(r)), (name, variant)


def test_rate_needs_no_doc_kernels(monkeypatch):
    # the rate reads the diagonal of A(z) alone; D(z) still needs the recursion
    def refuse(*args):
        raise RuntimeError("the DOC recursion ran")

    monkeypatch.setattr(dissipation, "_theta_from_abar", refuse)
    grid = default_z_grid()
    for name, params in CATALOG:
        t = get_method(name, **params)
        for variant in VARIANTS:
            assert average_dissipation_rate(t, grid, variant).shape == grid.shape, (name, variant)
            with pytest.raises(RuntimeError, match="the DOC recursion ran"):
                differentiation_matrix(t, grid, variant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_is_the_averaged_diagonal_of_d_past_the_property_range():
    # above |z| = 1e4 entries below the diagonal overflow and the scan
    # refuses; the rate keeps the bits of trace(D)/s, with D from both
    # routes, or raises the error D raises
    grid = -np.logspace(4, 300, 297)
    refused = {}
    for name, params in CATALOG:
        t = get_method(name, **params)
        for variant in VARIANTS:
            with np.errstate(over="ignore", invalid="ignore"):
                rate = _outcome(average_dissipation_rate, t, grid, variant)
                routes = [_outcome(route, t, grid, variant)
                          for route in (differentiation_matrix, _symbolic_route)]
                if isinstance(rate, str) or any(isinstance(d, str) for d in routes):
                    assert rate == routes[0] == routes[1], (name, variant)
                    refused[name] = rate
                    continue
                for d in routes:
                    want = _rate(np.diagonal(d, axis1=-2, axis2=-1))
                    assert rate.tobytes() == want.tobytes(), (name, variant)
    assert refused == {"ho4": "ho4: a diagonal coefficient vanishes at z=-1e+17"}


# eerk32:c2=7/10,c3=1's implicit rate past 1e305, where 1/a_{k+1,k} and z
# are both near the float64 limit and their sum cancels.  The exact rate
# lies below -1.8e308 at 16 points, and at 13 others, the hole, it is
# representable while an entry 1/a_{k+1,k} overflows
_HUGE_Z = -np.logspace(305, 308.2, 99)
_HOLE = (_HUGE_Z >= -4.76e307) & (_HUGE_Z <= -1.93e307)


def _huge_rates():
    t = parse_method("eerk32:c2=7/10,c3=1")
    exact = np.array([average_dissipation_rate_60(t, z, "implicit") for z in _HUGE_Z])
    beyond = np.array([e < -np.finfo(float).max for e in exact])
    return average_dissipation_rate(t, _HUGE_Z, "implicit"), exact, beyond


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_near_the_float64_limit_matches_60_digits_outside_the_hole():
    rate, exact, beyond = _huge_rates()
    inside = ~beyond & ~_HOLE
    assert (inside.sum(), beyond.sum(), _HOLE.sum()) == (70, 16, 13)
    for r, e in zip(rate[inside], exact[inside]):
        assert abs(r - e) <= 1e-15 * abs(e)
    # down to -5.85e308 there: -inf is the correctly rounded value
    assert all(float(e) == -np.inf for e in exact[beyond])
    assert np.all(rate[beyond] == -np.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rate_in_the_hole_matches_60_digits():
    rate, exact, _ = _huge_rates()
    for r, e in zip(rate[_HOLE], exact[_HOLE]):
        assert abs(r - e) <= 1e-15 * abs(e)


def test_implicit_rate_offset():
    grid = -np.logspace(-6, 3, 50)
    for name, params in [("eerk2", {"c2": "1/2"}), ("eerk31", {"c2": "4/9"}), ("ho4", {})]:
        t = get_method(name, **params)
        r = average_dissipation_rate(t, grid)
        rt = average_dissipation_rate(t, grid, "implicit")
        assert np.max(np.abs(rt - (r + grid / 2))) < 1e-12 * np.max(np.abs(r))


def test_implicit_rate_limits_of_second_order_family():
    # pure-implicit bookkeeping underestimates dissipation: it diverges to
    # -inf for c2 < 1 while the unit abscissa tends to 1/2
    assert average_dissipation_rate(get_method("eerk2", c2=1), -1e6, "implicit") == pytest.approx(0.5, abs=1e-4)
    assert average_dissipation_rate(get_method("eerk2", c2="3/4"), -1e6, "implicit") < -1e4


def test_eerk32_abscissa_condition_values():
    assert eerk32_abscissa_condition(1, "1/2") == pytest.approx(1.5 - 1 + 8 / 3, rel=1e-12)
    assert eerk32_abscissa_condition("3/4", "3/5") > 0
    assert eerk32_abscissa_condition("1/2", "7/10") > 0
    with pytest.raises(ValueError):
        eerk32_abscissa_condition("2/3", "1/2")
    with pytest.raises(ValueError):
        eerk32_abscissa_condition("1/2", "1/2")


# --------------------------------------------------------------------------
# Scans
# --------------------------------------------------------------------------


def test_scan_shapes():
    t = get_method("eerk2", c2=1)
    grid = np.linspace(-10, -0.1, 25)
    z, rate, minors, verdict = scan_method(t, z_grid=grid)
    assert z.shape == (25,) and rate.shape == (25,) and minors.shape == (25, 2)
    assert verdict == classify_method(t, z_grid=grid)
    # an unsorted grid gives its rows in ascending z, as the verdict reads them
    z_desc, rate_desc, _, _ = scan_method(t, z_grid=grid[::-1])
    assert np.array_equal(z_desc, grid) and np.array_equal(rate_desc, rate)
