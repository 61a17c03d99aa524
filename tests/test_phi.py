"""Tests for phi-function evaluation and the coefficient arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eerk.phi import _phi_taylor, basis, phi
from oracles import phi_taylor_adaptive

# Reference values computed beforehand with a 50-digit mpmath evaluation of
# the recursion seeded by exp; frozen here so the test stays independent of
# the production code path.
GOLDEN = [
    (1, -1.0, 0.6321205588285576784044762),
    (2, -1e-9, 0.499999999833333333375),  # 20-term Taylor at high precision
    (2, -0.5, 0.4261226388505336944152),
    (3, -10.0, 0.04099995460007023751515),
    (3, -0.75, 0.1395755786879651386357),
    (1, -0.125, 0.9400247793232367770809),
    (0, -3.0, 0.04978706836786394297934),
    (2, 1.0, 0.7182818284590452353603),
    (4, 0.25, 0.043840005395153256129),
    (5, 0.75, 9.49801239250559913769e-3),
    (5, -30.0, 0.001221028806584362136067),
    (6, -2.5, 0.001013553487696822798348),
    (6, -700.0, 1.182021172328139919025e-5),
    (7, -7.0, 1.028691199774510876048e-4),
    (8, -1.0, 2.229831429946445266663e-5),
    (8, -4.0, 1.699148153880049771712e-5),
    (4, -1e6, 1.666661666676666656667e-7),
    (2, -1e5, 9.9999e-6),
]


@pytest.mark.parametrize("k", range(9))
def test_value_at_zero_is_reciprocal_factorial(k):
    assert phi(k, 0.0) == pytest.approx(1.0 / math.factorial(k), rel=1e-15, abs=0)


@pytest.mark.parametrize("k,z,expected", GOLDEN)
def test_golden_values(k, z, expected):
    assert phi(k, z) == pytest.approx(expected, rel=1e-13)


def test_phi1_closed_form_independent_route():
    # (exp(z) - 1)/z is cancellation-free for z <= -1 and z >= 1
    zs = np.concatenate([-np.logspace(0, 6, 200), np.array([1.0])])
    for z in zs:
        direct = (np.exp(z) - 1.0) / z
        assert phi(1, z) == pytest.approx(direct, rel=1e-13)


def test_recursion_consistency_downward_form():
    # phi_k(z) = z*phi_{k+1}(z) + 1/k!, checked in the well-conditioned
    # direction on an 800-point grid.
    grid = -np.logspace(np.log10(1e-8), np.log10(100.0), 800)
    for k in range(4):
        pk = phi(k, grid)
        pk1 = phi(k + 1, grid)
        resid = np.abs(grid * pk1 + 1.0 / math.factorial(k) - pk)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(pk)))


def test_recursion_consistency_quotient_form():
    # The literal quotient (phi_k - 1/k!)/z amplifies representation error
    # of phi_k by ~1/|z|, so the direct form is only meaningful away from 0.
    grid = -np.logspace(np.log10(1e-3), np.log10(100.0), 400)
    for k in range(4):
        pk = phi(k, grid)
        pk1 = phi(k + 1, grid)
        resid = np.abs(pk1 - (pk - 1.0 / math.factorial(k)) / grid)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(pk1)))


def test_positive_on_nonpositive_axis():
    grid = np.concatenate([[0.0], -np.logspace(-8, 6, 300)])
    # exp(z) underflows to 0.0 below z ~ -745; positivity of phi_0 is only
    # representable above that.
    assert np.all(phi(0, grid[grid > -700.0]) > 0.0)
    for k in range(1, 9):
        assert np.all(phi(k, grid) > 0.0)


def test_vector_matches_scalar():
    rng = np.random.default_rng(20240911)
    z = np.concatenate([rng.uniform(-1e4, 1.0, 64), rng.uniform(-2.0, 1.0, 64)])
    for k in range(9):
        vec = phi(k, z)
        scal = np.array([phi(k, zz) for zz in z])
        assert np.array_equal(vec, scal)


def test_randomized_downward_recursion():
    rng = np.random.default_rng(7)
    z = np.concatenate([-(10.0 ** rng.uniform(-8, 4, 256)), rng.uniform(0.0, 1.0, 32)])
    for k in range(8):
        pk = phi(k, z)
        pk1 = phi(k + 1, z)
        resid = np.abs(z * pk1 + 1.0 / math.factorial(k) - pk)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(pk)))


def test_domain_errors():
    with pytest.raises(ValueError):
        phi(-1, 0.5)
    with pytest.raises(ValueError):
        phi(1, float("inf"))
    with pytest.raises(ValueError):
        phi(2, np.array([0.0, float("nan")]))


def _taylor_branch_points(k):
    """A dense grid of the Taylor branch ``|z| < max(1, k)``: both signs,
    the points next to its edge and magnitudes down to 1e-300, and 0."""
    edge = max(1.0, k)
    inner = np.linspace(-edge, edge, 100_001)[1:-1]
    tiny = np.logspace(-300, np.log10(edge) - 1e-12, 3001)
    near = edge * (1.0 - 2.0 ** -np.arange(1, 53))
    return np.concatenate([inner, tiny, -tiny, near, -near, [0.0, -0.0]])


@pytest.mark.parametrize("k", range(1, 9))
def test_taylor_branch_is_bit_identical_to_the_stopping_rule(k):
    # a fixed number of terms per order gives the sum of the series summed
    # until its terms fall below 1e-18 of the sum, bit for bit: on the whole
    # grid at once, and point by point on every 997th point
    z = _taylor_branch_points(k)
    assert np.all(np.abs(z) < max(1.0, k))
    got = _phi_taylor(k, z)
    assert got.tobytes() == phi_taylor_adaptive(k, z).tobytes()
    for i in range(0, len(z), 997):
        assert got[i] == phi_taylor_adaptive(k, z[i:i + 1])[0]


# --------------------------------------------------------------------------
# Coefficient arithmetic
# --------------------------------------------------------------------------

HALF = Fraction(1, 2)


def test_expr_product_composition_oracle():
    # (1/2) * phi_1(z/2) * (phi_0(z/2) - 1) at z = -2 equals
    # (1/2) * phi_1(-1) * (exp(-1) - 1); value frozen from a 50-digit check.
    P = basis(-2.0)
    e = HALF * P(1, HALF) * (P(0, HALF) - P(0, 0))
    assert e.value == pytest.approx(-0.199788200446864024351476, rel=1e-14)


def test_expr_sum_at_zero():
    P = basis(0.0)
    e = P(1) - P(2)
    assert e.value == pytest.approx(0.5, rel=1e-15)


def test_expr_second_order_weight_at_zero():
    # the (1/c2)*phi_2 weight with c2 = 1 evaluates to phi_2(0) = 1/2
    e = Fraction(1, 1) * basis(0.0)(2, Fraction(1))
    assert e.value == pytest.approx(0.5, rel=1e-15)


def test_expr_vector_evaluation():
    z = np.array([-2.0, -0.5, 0.0])
    P = basis(z)
    got = (3 * P(0) - P(1)).value
    want = 3.0 * np.exp(z) - phi(1, z)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    P = basis(-2.0)
    assert (3 * P(0) - P(1)).value == pytest.approx(got[0])


def test_expr_rejects_malformed_tree():
    # a weight is an exact rational and an operand a basis value, checked as
    # the formula is evaluated
    P = basis(-1.0)
    for build in (lambda: P(1) + 2.0, lambda: 2.0 + P(1), lambda: P(1) - "phi",
                  lambda: 0.5 * P(1), lambda: P(1) * 0.5, lambda: np.float64(2) * P(1)):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(OverflowError):
        Fraction(10**400) * P(1)
