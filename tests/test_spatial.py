"""Tests for the spectral Dirichlet Laplacian and problem setup."""

import numpy as np
import pytest
import scipy.fft

from eerk.phi import phi
from eerk.spatial import CahnHilliard, Problem, StabilizedSemilinear
from oracles import apply, apply_stencil, apply_values, build_laplacian_1d, g_stabilized, inner


def dense_laplacian(op):
    m = op.m
    a = np.zeros((m, m))
    np.fill_diagonal(a, 2.0)
    idx = np.arange(m - 1)
    a[idx, idx + 1] = -1.0
    a[idx + 1, idx] = -1.0
    return a / op.h**2


def test_benchmark_mesh_point_count():
    op = build_laplacian_1d(2 * np.pi, 639)
    assert op.h == pytest.approx(np.pi / 320, rel=1e-15)
    assert op.eigenvalues.shape == (639,)


def test_two_point_eigenvalues():
    op = build_laplacian_1d(3.0, 2)
    assert op.eigenvalues * op.h**2 == pytest.approx([1.0, 3.0], rel=1e-14)


def test_analytic_eigenvalues_match_dense_solver():
    op = build_laplacian_1d(1.7, 5)
    dense = np.sort(np.linalg.eigvalsh(dense_laplacian(op)))
    assert np.max(np.abs(op.eigenvalues - dense) / dense) < 1e-12


def test_round_trip_and_identity_function():
    rng = np.random.default_rng(11)
    op = build_laplacian_1d(2 * np.pi, 40)
    v = rng.standard_normal(40)
    assert np.max(np.abs(op.forward(op.forward(v)) - v)) < 1e-12
    assert np.max(np.abs(apply(op, lambda lam: np.ones_like(lam), v) - v)) < 1e-12


@pytest.mark.parametrize("m", [57, 639])
def test_transform_matches_dense_sine_matrix(m):
    # oracle: the orthonormal sine matrix S_jk = sqrt(2/(m+1)) sin(jk pi/(m+1))
    rng = np.random.default_rng(12)
    v = rng.standard_normal(m)
    op = build_laplacian_1d(4.0, m)
    k = np.arange(1, m + 1)
    basis = np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(k, k) * np.pi / (m + 1))
    assert np.max(np.abs(op.forward(v) - basis @ v)) < 1e-12
    want = basis @ (op.eigenvalues * (basis @ v))
    assert np.max(np.abs(apply_values(op, op.eigenvalues, v) - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [2, 57, 639, 1279, 4095])
def test_forward_is_bit_identical_to_scipy_fft_dst(m):
    rng = np.random.default_rng(m)
    op = build_laplacian_1d(4.0, m)
    for v in (rng.standard_normal(m), rng.standard_normal((3, m))):
        assert np.array_equal(op.forward(v), scipy.fft.dst(v, type=1, norm="ortho"))


def test_transform_odd_completes_the_extensions():
    # rows written into the body of run buffers transform as op.forward
    # does, and the tails then hold their negated reverse
    rng = np.random.default_rng(14)
    op = build_laplacian_1d(4.0, 57)
    v = rng.standard_normal((2, 3, 57))
    odd, body = op.odd_buffer((2, 3))
    spectrum, coefficients = op.spectrum_buffer((2, 3))
    body[...] = v
    op.transform_odd(odd, spectrum)
    assert np.array_equal(coefficients, op.forward(v))
    assert np.array_equal(odd, np.concatenate([np.zeros((2, 3, 1)), v, np.zeros((2, 3, 1)),
                                               -v[..., ::-1]], axis=-1))


def test_spectral_laplacian_matches_stencil():
    rng = np.random.default_rng(13)
    op = build_laplacian_1d(2 * np.pi, 64)
    v = rng.standard_normal(64)
    got = apply(op, lambda lam: lam, v)
    want = apply_stencil(op, v.copy())
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_phi_of_operator_against_dense_eigendecomposition():
    rng = np.random.default_rng(14)
    m, tau, eps, kappa = 32, 0.1, 0.2, 2.0
    op = build_laplacian_1d(2 * np.pi, m)
    v = rng.standard_normal(m)
    lam_d, q = np.linalg.eigh(dense_laplacian(op))
    f = lambda lam: phi(1, -tau * (eps**2 * lam**2 + kappa * lam))
    dense_result = q @ (f(lam_d) * (q.T @ v))
    assert np.max(np.abs(apply(op, f, v) - dense_result)) < 1e-9


def test_inner_products():
    rng = np.random.default_rng(15)
    op = build_laplacian_1d(5.0, 48)
    u, v = rng.standard_normal(48), rng.standard_normal(48)
    assert inner(op, v, v) > 0
    assert inner(op, np.zeros(48), np.zeros(48)) == 0
    # <u, L v>_{-1} collapses to the L2 product
    lv = apply_stencil(op, v.copy())
    assert inner(op, u, lv, "hminus1") == pytest.approx(inner(op, u, v), rel=1e-10)
    # sine modes are orthogonal
    e1 = np.sin(1 * np.pi * np.arange(1, 49) / 49)
    e2 = np.sin(2 * np.pi * np.arange(1, 49) / 49)
    assert abs(inner(op, e1, e2)) < 1e-12


def test_spectral_composition_property():
    rng = np.random.default_rng(16)
    op = build_laplacian_1d(3.0, 33)
    v = rng.standard_normal(33)
    f = lambda lam: 1.0 / (1.0 + lam)
    g = lambda lam: np.exp(-1e-3 * lam)
    left = apply(op, f, apply(op, g, v))
    right = apply(op, lambda lam: f(lam) * g(lam), v)
    assert np.max(np.abs(left - right)) < 1e-11 * np.max(np.abs(right))


def test_spectral_symmetry_property():
    rng = np.random.default_rng(17)
    op = build_laplacian_1d(3.0, 29)
    u, v = rng.standard_normal(29), rng.standard_normal(29)
    f = lambda lam: np.sqrt(lam)
    for metric in ("l2", "hminus1"):
        a = inner(op, apply(op, f, u), v, metric)
        b = inner(op, u, apply(op, f, v), metric)
        assert a == pytest.approx(b, rel=1e-11)


# --------------------------------------------------------------------------
# Problems and energy
# --------------------------------------------------------------------------


def test_cahn_hilliard_spectral_map_monotone():
    op = build_laplacian_1d(2 * np.pi, 30)
    p = Problem(op, CahnHilliard(eps=0.2, kappa=2.0))
    mu = p.mu
    assert np.all(mu > 0)
    assert np.all(np.diff(mu) > 0)
    assert np.array_equal(p.weight, op.h / op.eigenvalues)


def test_cahn_hilliard_stabilized_nonlinearity():
    # -L_kappa u + g_kappa(u) must equal -eps^2 L^2 u - L(u^3 - u)
    rng = np.random.default_rng(18)
    op = build_laplacian_1d(2 * np.pi, 24)
    eps, kappa = 0.2, 2.0
    p = Problem(op, CahnHilliard(eps=eps, kappa=kappa))
    u = rng.uniform(-1, 1, 24)
    lk_u = apply(op, lambda lam: eps**2 * lam**2 + kappa * lam, u)
    got = -lk_u + op.forward(g_stabilized(p, u))
    l2u = apply_stencil(op, apply_stencil(op, u.copy()))
    want = -eps**2 * l2u - apply_stencil(op, u**3 - u)
    assert np.max(np.abs(got - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))


def test_ch_energy_of_zero_state():
    op = build_laplacian_1d(2 * np.pi, 50)
    p = Problem(op, CahnHilliard(eps=0.2, kappa=2.0))
    assert p.energy(np.zeros(50)) == pytest.approx(op.h * 50 / 4, rel=1e-14)


def test_ch_energy_of_scaled_eigenvector():
    op = build_laplacian_1d(2 * np.pi, 50)
    eps = 0.2
    p = Problem(op, CahnHilliard(eps=eps, kappa=2.0))
    k = 3
    vec = np.sqrt(2.0 / 51) * np.sin((k + 1) * np.pi * np.arange(1, 51) / 51)
    vec /= np.linalg.norm(vec)  # unit Euclidean norm
    s = 0.37
    v = s * vec
    stiff = 0.5 * eps**2 * op.h * s**2 * op.eigenvalues[k]
    bulk = op.h * np.sum(0.25 * (v**2 - 1) ** 2)
    assert p.energy(v) == pytest.approx(stiff + bulk, rel=1e-12)


def test_ch_energy_nonnegative_on_random_states():
    rng = np.random.default_rng(19)
    op = build_laplacian_1d(2 * np.pi, 40)
    p = Problem(op, CahnHilliard(eps=0.2, kappa=2.0))
    for _ in range(5):
        assert p.energy(rng.uniform(-1.5, 1.5, 40)) >= 0.0


@pytest.mark.parametrize("kind", ["cahn_hilliard", "semilinear"])
def test_energy_from_coefficients_matches_stencil_form(kind):
    # oracle: 0.5 c <v, L v> with the tridiagonal stencil, plus h sum G(v)
    rng = np.random.default_rng(20)
    op = build_laplacian_1d(2 * np.pi, 639)
    if kind == "cahn_hilliard":
        p, c = Problem(op, CahnHilliard(eps=0.2, kappa=2.0)), 0.2**2
        density = lambda v: 0.25 * (v**2 - 1.0) ** 2
    else:
        density = lambda v: 0.25 * v**4
        p, c = Problem(op, StabilizedSemilinear(kappa=1.0, g=lambda u: -u**3,
                                                potential=density)), 1.0
    batch = rng.uniform(-1.5, 1.5, (3, 639)) + np.sin(op.x)
    want = [0.5 * c * inner(op, v, apply_stencil(op, v)) + op.h * np.sum(density(v))
            for v in batch]
    for v, e in zip(batch, want):
        assert isinstance(p.energy(v), float)
        assert p.energy(v) == pytest.approx(e, rel=1e-12)
        assert p.energy(v, op.forward(v)) == pytest.approx(e, rel=1e-12)
    for got in (p.energy(batch), p.energy(batch, op.forward(batch))):
        assert got.shape == (3,)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_semilinear_problem():
    op = build_laplacian_1d(2 * np.pi, 20)
    p = Problem(op, StabilizedSemilinear(kappa=1.0, g=lambda u: -u**3,
                                         potential=lambda u: 0.25 * u**4))
    assert p.weight == op.h
    u = np.linspace(-1, 1, 20)
    assert np.max(np.abs(op.forward(g_stabilized(p, u)) - (-u**3 + u))) < 1e-14
    assert p.energy(u) > 0
    bare = Problem(op, StabilizedSemilinear(kappa=1.0, g=lambda u: -u**3))
    with pytest.raises(ValueError):
        bare.energy(u)


def test_errors():
    with pytest.raises(ValueError):
        build_laplacian_1d(1.0, 1)
    op = build_laplacian_1d(1.0, 8)
    with pytest.raises(ValueError):
        apply(op, lambda lam: lam, np.zeros(7))
    with pytest.raises(ValueError):
        apply(op, lambda lam: np.full_like(lam, np.inf), np.zeros(8))
    with pytest.raises(ValueError):
        inner(op, np.zeros(8), np.zeros(8), metric="h2")
    with pytest.raises(ValueError):
        Problem(op, StabilizedSemilinear(kappa=1.0, g=lambda u: u)).energy(np.zeros(8))
    with pytest.raises(ValueError):
        # eps^2 lam^2 + kappa lam < 0 on the lowest mode
        Problem(op, CahnHilliard(eps=0.2, kappa=-5.0))
    # negative, non-finite or overflowing parameters, without a warning
    with np.errstate(all="raise"):
        for eps, kappa in [(-0.2, 2.0), (np.inf, 2.0), (np.nan, 2.0), (1e200, 2.0),
                           (0.2, np.inf), (0.2, np.nan), (0.2, 1e308)]:
            with pytest.raises(ValueError):
                Problem(op, CahnHilliard(eps=eps, kappa=kappa))
        for kappa in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                Problem(op, StabilizedSemilinear(kappa=kappa, g=lambda u: u))
