"""Tests for phi-function evaluation and the coefficient algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eerk.phi import Phi, phi

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


# --------------------------------------------------------------------------
# Coefficient algebra
# --------------------------------------------------------------------------

HALF = Fraction(1, 2)
ONE = Phi(0, Fraction(0))


def test_expr_product_composition_oracle():
    # (1/2) * phi_1(z/2) * (phi_0(z/2) - 1) at z = -2 equals
    # (1/2) * phi_1(-1) * (exp(-1) - 1); value frozen from a 50-digit check.
    e = HALF * Phi(1, HALF) * (Phi(0, HALF) - ONE)
    assert e.at(-2.0, {}) == pytest.approx(-0.199788200446864024351476, rel=1e-14)


def test_expr_sum_at_zero():
    e = Phi(1) - Phi(2)
    assert e.at(0.0, {}) == pytest.approx(0.5, rel=1e-15)


def test_expr_second_order_weight_at_zero():
    # the (1/c2)*phi_2 weight with c2 = 1 evaluates to phi_2(0) = 1/2
    e = Fraction(1, 1) * Phi(2, Fraction(1))
    assert e.at(0.0, {}) == pytest.approx(0.5, rel=1e-15)


def test_expr_vector_evaluation():
    e = 3 * Phi(0) - Phi(1)
    z = np.array([-2.0, -0.5, 0.0])
    got = e.at(z, {})
    want = 3.0 * np.exp(z) - phi(1, z)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    assert e.at(-2.0, {}) == pytest.approx(got[0])


def test_expr_rejects_malformed_tree():
    # a weight is an exact rational and a term an expression, checked when
    # the expression is built
    for build in (lambda: Phi(1) + 2.0, lambda: 2.0 + Phi(1), lambda: Phi(1) - "phi",
                  lambda: 0.5 * Phi(1), lambda: Phi(1) * 0.5, lambda: np.float64(2) * Phi(1)):
        with pytest.raises(TypeError):
            build()
