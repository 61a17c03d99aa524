"""Tests for the EERK stage loop and stage-energy monitoring."""

import sys
from collections import Counter

import numpy as np
import pytest

from eerk.dissipation import differentiation_matrix
from eerk.integrator import Ensemble, EnsembleReport, _step_count, integrate
from eerk.phi import phi
from eerk.bench import ExperimentConfig, initial_profile, run_convergence, run_energy
from eerk.spatial import CahnHilliard, Problem, StabilizedSemilinear
from eerk.tableaux import coefficient_matrix, get_method
from oracles import apply, apply_stencil, apply_values, build_laplacian_1d, g_stabilized, inner


def semilinear(m=24, kappa=1.0, g=None, potential=None, length=2 * np.pi):
    op = build_laplacian_1d(length, m)
    return Problem(op, StabilizedSemilinear(kappa=kappa, g=g or (lambda u: 0.0 * u),
                                            potential=potential or (lambda u: 0.0 * u)))


def cahn_hilliard(m=48, eps=0.2, kappa=2.0):
    op = build_laplacian_1d(2 * np.pi, m)
    return Problem(op, CahnHilliard(eps=eps, kappa=kappa))


class Blocks(list):
    """An ``on_block`` hook that keeps a copy of every block handed to it."""

    def __call__(self, n0, stages):
        self.append((n0, stages.copy()))

    def steps(self):
        """The stages of every step handed over, shape ``(n, s, m)``, after
        checking that the blocks hand over steps 1..n once each, in order."""
        n = 0
        for n0, stages in self:
            assert n0 == n and len(stages) > 0
            n += len(stages)
        return np.concatenate([stages for _, stages in self])


def one_step(p, tableau, u, tau, monitor=False):
    """The stages ``U^1 .. U^{s+1}``, shape ``(s+1, m)``, of one step from
    ``u``, as handed over by ``on_block``, and the report of the run."""
    blocks = Blocks()
    rep = integrate(p, tableau, u, tau, tau, monitor=monitor, on_block=blocks)
    steps = blocks.steps()
    assert steps.shape == (1, tableau.stages, p.op.m)
    return np.vstack([u, steps[0]]), rep


def test_etd1_step_matches_exponential_euler_form():
    # u_next = phi_0(-tau L) u + tau phi_1(-tau L) g(u), assembled through
    # spectral operations only, independent of the stage-loop code path.
    rng = np.random.default_rng(21)
    p = semilinear(g=lambda u: np.tanh(u), kappa=1.5)
    u = rng.standard_normal(24)
    tau = 0.2
    mu = p.mu
    stages, _ = one_step(p, get_method("etd1"), u, tau)
    direct = (apply(p.op, lambda lam: phi(0, -tau * (lam + 1.5)), u)
              + tau * apply(p.op, lambda lam: phi(1, -tau * (lam + 1.5)), np.tanh(u) + 1.5 * u))
    assert np.max(np.abs(stages[-1] - direct)) < 1e-11 * max(1.0, np.max(np.abs(direct)))


def test_etd2rk_step_matches_two_line_scheme():
    # Cox-Matthews form: U2 = phi_0 u + tau phi_1 g(u);
    # u_next = U2 + tau phi_2 (g(U2) - g(u))
    rng = np.random.default_rng(22)
    kappa = 1.0
    p = semilinear(g=lambda u: u - u**3, kappa=kappa)
    gk = lambda u: u - u**3 + kappa * u
    u = 0.5 * rng.standard_normal(24)
    tau = 0.3
    stages, _ = one_step(p, get_method("eerk2", c2=1), u, tau)
    ap = lambda k, v: apply(p.op, lambda lam: phi(k, -tau * (lam + kappa)), v)
    u2 = ap(0, u) + tau * ap(1, gk(u))
    u3 = u2 + tau * ap(2, gk(u2) - gk(u))
    assert np.max(np.abs(stages[1] - u2)) < 1e-12 * max(1.0, np.max(np.abs(u2)))
    assert np.max(np.abs(stages[2] - u3)) < 1e-11 * max(1.0, np.max(np.abs(u3)))


@pytest.mark.parametrize("name,params", [
    ("etd1", {}), ("eerk2", {"c2": "1/2"}), ("eerk2s", {"c2": "3/4"}),
    ("eerk31", {"c2": "4/9"}), ("eerk32", {"c2": "3/4", "c3": "3/5"}),
    ("etd3rk", {}), ("etd2cf3", {}), ("cm4", {}), ("krogstad4", {}),
    ("sw4", {}), ("ho4", {}),
])
def test_linear_exactness(name, params):
    # with g == 0 and no shift the stabilized nonlinearity vanishes and
    # every method reproduces the exact decay semigroup
    rng = np.random.default_rng(23)
    p = semilinear(kappa=0.0)
    u0 = rng.standard_normal(24)
    tau, n = 0.05, 10
    rep = integrate(p, get_method(name, **params), u0, tau, tau * n)
    exact = apply(p.op, lambda lam: np.exp(-n * tau * lam), u0)
    assert np.max(np.abs(rep.final_state - exact)) < 1e-9


@pytest.mark.parametrize("name,params", [
    ("etd1", {}), ("eerk2", {"c2": "1/2"}), ("eerk31", {"c2": "4/9"}),
    ("eerk32", {"c2": 1, "c3": "1/2"}), ("cm4", {}), ("ho4", {}),
])
def test_equilibria_preservation(name, params):
    # freeze the nonlinearity at g_kappa == L_kappa u*: u* is then a fixed
    # point of every stage (row-sum identity)
    rng = np.random.default_rng(24)
    m, kappa = 24, 0.9
    op = build_laplacian_1d(2 * np.pi, m)
    u_star = rng.standard_normal(m)
    lk_u_star = apply(op, lambda lam: lam + kappa, u_star)
    p = Problem(op, StabilizedSemilinear(
        kappa=kappa, g=lambda u: lk_u_star - kappa * u, potential=lambda u: 0.0 * u))
    rep = integrate(p, get_method(name, **params), u_star, 0.25, 2.5)
    assert np.max(np.abs(rep.final_state - u_star)) < 1e-10 * max(1.0, np.max(np.abs(u_star)))


def test_zero_step_margins_vanish():
    p = cahn_hilliard(m=24)
    u_star = np.zeros(24)  # g_kappa(0) = 0 and stages stay put
    stages, rep = one_step(p, get_method("eerk31", c2="4/9"), u_star, 0.1, monitor=True)
    assert np.max(np.abs(np.diff(stages, axis=0))) == 0.0
    assert rep.margins[0] == pytest.approx(np.zeros(3), abs=1e-15)


def _margin_loop(p, tableau, stages, tau):
    # the margin quadratic form as first written: one multiply-add per (k, l)
    # on the physical stage increments, with energies from the stencil
    op = p.op
    dmats = np.moveaxis(differentiation_matrix(tableau, -tau * p.mu), 0, -1)
    delta_hats = [op.forward(d) for d in np.diff(stages, axis=0)]
    weight = p.weight
    eps2 = p.kind.eps**2
    energies = [0.5 * eps2 * inner(op, v, apply_stencil(op, v)) + op.h * np.sum(0.25 * (v**2 - 1.0) ** 2)
                for v in stages]
    margins = np.empty(len(delta_hats))
    quad = 0.0
    for k in range(len(delta_hats)):
        v = np.zeros_like(delta_hats[0])
        for l in range(k + 1):
            v += dmats[k, l] * delta_hats[l]
        quad += float(np.sum(weight * delta_hats[k] * v))
        margins[k] = -quad / tau - (energies[k + 1] - energies[0])
    return margins


def test_monitor_margins_match_standalone_recomputation():
    p = cahn_hilliard(m=40)
    u = 0.4 * np.sin(p.op.x) - 0.1 * np.sin(2 * p.op.x)
    for name, params in [("eerk2w", {"c2": "1/2"}), ("eerk31", {"c2": "4/9"}), ("ho4", {})]:
        t = get_method(name, **params)
        stages, rep = one_step(p, t, u, 0.1, monitor=True)
        want = _margin_loop(p, t, stages, 0.1)
        assert rep.margins.shape == (1, t.stages)
        assert np.max(np.abs(rep.margins[0] - want)) < 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_etd1_margin_against_direct_quadratic_form():
    # single stage: margin = (1/tau) <du, d11(-tau mu) du> ... - energy gap,
    # with d11(z) = z/2 + 1/phi_1(z)
    p = cahn_hilliard(m=32)
    u = 0.5 * np.sin(p.op.x)
    tau = 0.2
    t = get_method("etd1")
    stages, rep = one_step(p, t, u, tau, monitor=True)
    du = stages[1] - stages[0]
    mu = p.mu
    z = -tau * mu
    d11 = z / 2 + 1.0 / phi(1, z)
    quad = inner(p.op, du, apply_values(p.op, d11, du), metric="hminus1")
    expected = -quad / tau - (rep.energies[1] - rep.energies[0])
    assert rep.margins[0, 0] == pytest.approx(expected, rel=1e-10, abs=1e-13)


def test_energy_monotone_on_small_cahn_hilliard():
    p = cahn_hilliard(m=64)
    u0 = 0.5 * np.sin(p.op.x)
    rep = integrate(p, get_method("eerk31", c2="4/9"), u0, 0.1, 4.0, monitor=True)
    assert not rep.diverged
    diffs = np.diff(rep.energies)
    assert np.all(diffs <= 1e-10 * np.abs(rep.energies[:-1]))
    assert np.all(rep.margins >= -1e-9 * max(1.0, np.max(np.abs(rep.energies))))


def test_single_step_run_and_bad_horizon():
    p = cahn_hilliard(m=24)
    u0 = 0.2 * np.sin(p.op.x)
    rep = integrate(p, get_method("etd1"), u0, 0.5, 0.5)
    assert rep.n_steps == 1
    with pytest.raises(ValueError):
        integrate(p, get_method("etd1"), u0, 0.5, 0.8)
    with pytest.raises(ValueError):
        integrate(p, get_method("etd1"), u0, 0.5, -0.5)
    # a zero horizon reports the initial state
    rep = integrate(p, get_method("etd1"), u0, 0.5, 0.0, monitor=True)
    assert rep.n_steps == 0 and rep.margins is None and not rep.diverged
    assert rep.energies.tolist() == [p.energy(u0)]
    assert rep.sup_norms.tolist() == [np.max(np.abs(u0))]
    assert rep.energy_law is None
    assert integrate(p, get_method("etd1"), u0, 0.5, 1.0).energy_law is None
    assert np.array_equal(rep.final_state, u0)
    with pytest.raises(ValueError):
        integrate(p, get_method("etd1"), u0, -0.1, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_horizons_are_rejected_before_any_allocation(monkeypatch):
    p = cahn_hilliard(m=24)
    u0 = 0.2 * np.sin(p.op.x)

    def no_evaluation(*args, **kwargs):
        raise AssertionError("A(z) was evaluated or a buffer allocated for a horizon that is rejected")

    # A(z) is evaluated after the step rule, and the stage buffers, then the
    # series, are allocated after A(z)
    monkeypatch.setattr("eerk.integrator.coefficient_matrix", no_evaluation)
    monkeypatch.setattr("eerk.integrator._StageBuffers", no_evaluation)
    # 1e12 steps would take 7.28 TiB of series
    with pytest.raises(ValueError, match=r"^final time 1.0 takes more than 16777216 steps of tau 1e-12$"):
        integrate(p, get_method("etd1"), u0, 1e-12, 1.0)
    for t_final in (float("inf"), float("nan"), -float("inf")):
        with pytest.raises(ValueError, match=rf"^final time {t_final} .* tau 0.5$"):
            integrate(p, get_method("etd1"), u0, 0.5, t_final)
    # numpy scalars whose quotient overflows
    with pytest.raises(ValueError, match="takes more than 16777216 steps"):
        integrate(p, get_method("etd1"), u0, np.float64(1e-300), np.float64(1e300))
    for tau in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="step size must be positive"):
            integrate(p, get_method("etd1"), u0, tau, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_beyond_the_stiff_spectrum_is_rejected_before_any_allocation(monkeypatch):
    # tau * mu overflows, so phi would be asked for phi_k(-inf)
    p = cahn_hilliard(m=24)
    u0 = 0.2 * np.sin(p.op.x)

    def no_evaluation(*args, **kwargs):
        raise AssertionError("A(z) was evaluated or a buffer allocated for a step that is rejected")

    monkeypatch.setattr("eerk.integrator.coefficient_matrix", no_evaluation)
    monkeypatch.setattr("eerk.integrator._StageBuffers", no_evaluation)
    for tau in (1e308, np.float64(1e308)):
        with pytest.raises(ValueError, match=r"^step size tau 1e\+308 times the largest stiff "
                                             r"eigenvalue .* overflows float64$"):
            integrate(p, get_method("etd1"), u0, tau, 1e308)
    stiff = cahn_hilliard(m=24, kappa=1e300)
    with pytest.raises(ValueError, match="step size tau 10000000000.0 times"):
        integrate(stiff, get_method("eerk2", c2=1), u0, 1e10, 1e10, monitor=True)


def test_step_count_cap_and_roundoff():
    p = cahn_hilliard(m=24)
    assert _step_count(p, 0.0, 0.1) == 0
    assert _step_count(p, 0.3, 0.1) == 3  # 0.3 / 0.1 = 2.9999999999999996
    assert _step_count(p, 2**24 * 0.25, 0.25) == 2**24
    with pytest.raises(ValueError, match="takes more than 16777216 steps"):
        _step_count(p, (2**24 + 1) * 0.25, 0.25)
    with pytest.raises(ValueError, match="not an integer multiple"):
        _step_count(p, 0.3 + 1e-12, 0.1)
    # a zero horizon takes no step, yet its tau * mu must still be finite
    with pytest.raises(ValueError, match="step size tau 1e\\+308 times the largest stiff"):
        integrate(p, get_method("etd1"), 0.2 * np.sin(p.op.x), tau=1e308, t_final=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_is_reported_not_raised():
    # blow-up nonlinearity at a large step diverges quickly
    p = semilinear(m=16, kappa=0.1, g=lambda u: u**3)
    u0 = 3.0 * np.ones(16)
    rep = integrate(p, get_method("eerk2", c2=1), u0, 5.0, 50.0)
    assert rep.diverged
    assert rep.diverged_step is not None
    assert np.all(np.isfinite(rep.energies))
    assert rep.n_steps < 10


def test_on_block_hands_over_each_step_once():
    # 35 two-stage steps on 24 points run in blocks of 16, 16 and 3 steps
    p = cahn_hilliard(m=24)
    u0 = 0.3 * np.sin(p.op.x)
    t = get_method("eerk2", c2=1)
    blocks = Blocks()
    rep = integrate(p, t, u0, 0.1, 3.5, on_block=blocks)
    assert [(n0, stages.shape) for n0, stages in blocks] == [
        (0, (16, 2, 24)), (16, (16, 2, 24)), (32, (3, 2, 24))]
    steps = blocks.steps()
    assert np.array_equal(steps[-1, -1], rep.final_state)
    assert np.array_equal(np.max(np.abs(steps), axis=2)[:, -1], rep.sup_norms[1:])
    for n in (2, 5, 10, 16, 17):
        assert np.array_equal(steps[n - 1, -1], integrate(p, t, u0, 0.1, 0.1 * n).final_state)


def _physical_stage_loop(p, tableau, u0, tau, n_steps):
    # the stage loop as first written: every step transforms its start
    # state, and each stage forms the stabilized nonlinearity in physical
    # space, L((1 + kappa) U - U^3) with the stencil for Cahn-Hilliard and
    # g(U) + kappa U otherwise
    op, kind = p.op, p.kind
    tau_mu = tau * p.mu
    a = coefficient_matrix(tableau, -tau_mu)
    coeff = [[a[:, i, j] for j in range(i + 1)] for i in range(tableau.stages)]
    u = u0.copy()
    for _ in range(n_steps):
        u1_hat = op.forward(u)
        stages, w_hats = [u], []
        for row in coeff:
            v = stages[-1]
            if isinstance(kind, CahnHilliard):
                g = apply_stencil(op, (1.0 + kind.kappa) * v - v ** 3)
            else:
                g = kind.g(v) + kind.kappa * v
            w_hats.append(tau * op.forward(g) - tau_mu * u1_hat)
            acc = u1_hat.copy()
            for a, w in zip(row, w_hats):
                acc += a * w
            stages.append(op.forward(acc))
        u = stages[-1]
    return u


# a nonlinearity that is not odd, g(-u) != -g(u), with g = -G'
NOT_ODD = {"g": lambda u: 1 - u**2 - u**3, "potential": lambda u: -(u - u**3 / 3 - u**4 / 4)}


@pytest.mark.parametrize("name,c2,tau,kind", [
    ("eerk2w", "3/11", 0.00125, "cahn-hilliard"), ("eerk31", "4/9", 0.1, "cahn-hilliard"),
    ("eerk2w", "3/11", 0.01, "semilinear"), ("eerk31", "4/9", 0.1, "semilinear"),
], ids=["eerk2w-3/11-0.00125", "eerk31-4/9-0.1", "eerk2w-3/11-0.01-semilinear",
        "eerk31-4/9-0.1-semilinear"])
def test_spectral_state_loop_matches_physical_stage_loop(name, c2, tau, kind):
    p = cahn_hilliard(m=639) if kind == "cahn-hilliard" else semilinear(m=127, kappa=2.0, **NOT_ODD)
    u0 = 0.5 * np.sin(p.op.x)
    t = get_method(name, c2=c2)
    rep = integrate(p, t, u0, tau, 20 * tau)
    want = _physical_stage_loop(p, t, u0, tau, 20)
    assert np.max(np.abs(rep.final_state - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("name,c2,tau", [("eerk2w", "3/11", 0.00125), ("eerk31", "4/9", 0.1)])
def test_monitoring_does_not_change_the_path(name, c2, tau):
    p = cahn_hilliard(m=639)
    u0 = 0.5 * np.sin(p.op.x)
    t = get_method(name, c2=c2)
    plain = integrate(p, t, u0, tau, 20 * tau)
    watched = integrate(p, t, u0, tau, 20 * tau, monitor=True)
    assert plain.margins is None and watched.margins.shape == (20, t.stages)
    assert np.array_equal(plain.final_state, watched.final_state)
    assert np.array_equal(plain.energies, watched.energies)


@pytest.mark.parametrize("spec", [("eerk2w", {"c2": "3/11"}), ("eerk31", {"c2": "4/9"}), ("cm4", {})],
                         ids=["eerk2w", "eerk31", "cm4"])
def test_a_run_evaluates_its_coefficients_once(spec, monkeypatch):
    # the monitor builds D(z) from the coefficients the stage loop already
    # evaluated, so it makes no phi call of its own; eerk.phi on the package
    # is the re-exported function, so patch the module
    module = sys.modules["eerk.phi"]
    calls = []

    def counted(k, z):
        calls.append(k)
        return phi(k, z)

    monkeypatch.setattr(module, "phi", counted)
    p, t = cahn_hilliard(m=16), get_method(spec[0], **spec[1])
    counts = []
    for monitor in (False, True):
        calls.clear()
        integrate(p, t, 0.5 * np.sin(p.op.x), 0.1, 0.3, monitor=monitor)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1]


def test_a_driver_evaluates_each_members_coefficients_once(monkeypatch):
    # a monitored energy run refuses a vanishing a_{k+1,k} through the D(z)
    # that its prepared run forms, so no member's A(z) is evaluated twice,
    # here with members in two stage groups
    calls = []

    def counted(t, z):
        calls.append(t.label)
        return coefficient_matrix(t, z)

    for module in ("eerk.integrator", "eerk.dissipation"):
        monkeypatch.setattr(f"{module}.coefficient_matrix", counted)
    specs = ["eerk2w:c2=3/11", "eerk31:c2=4/9"]
    run_energy(ExperimentConfig(methods=specs, m=15, taus=[0.1], t_final=0.3, monitor=True))
    assert Counter(calls) == {"eerk2w:c2=3/11": 1, "eerk31:c2=4/9": 1}
    # a table: one per method and tau, and one for the reference, eerk31:c2=4/9
    calls.clear()
    run_convergence(ExperimentConfig(methods=specs, m=15, taus=[0.1, 0.05], t_final=0.3, ref_tau=0.025))
    assert Counter(calls) == {"eerk2w:c2=3/11": 2, "eerk31:c2=4/9": 3}


def _per_step_loop(p, tableau, u0, tau, n_steps, monitor=False):
    # the step loop before blocks: every stage is checked as it is formed,
    # and each step records its energy, sup-norm and margins at once;
    # returns the report fields, the stages U^2..U^{s+1} of each finite
    # step and the failing (step, stage), if any
    op = p.op
    tau_mu = tau * p.mu
    s = tableau.stages
    a = np.moveaxis(coefficient_matrix(tableau, -tau_mu), 0, -1)
    b = 1.0 - tau_mu * a.sum(axis=1)
    weight = p.weight
    dmats = np.moveaxis(differentiation_matrix(tableau, -tau_mu), 0, -1) * weight
    u, u_hat = u0.copy(), op.forward(u0)
    energies, sup_norms, margins = [p.energy(u, u_hat)], [np.max(np.abs(u))], []
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            stages, hats, g_hats = [u], [u_hat], []
            for i in range(s):
                g_hats.append(g_stabilized(p, stages[-1]))
                hats.append(b[i] * u_hat + sum(tau * a[i, j] * g_hats[j] for j in range(i + 1)))
                stages.append(op.forward(hats[-1]))
                if not np.all(np.isfinite(stages[-1])):
                    return energies, sup_norms, margins, u, steps, (n, i + 1)
            u, u_hat = stages[-1], hats[-1]
            steps.append(stages[1:])
            if monitor:
                stage_energies = np.array([p.energy(v, v_hat) for v, v_hat in zip(stages[1:], hats[1:])])
                dh = np.diff(hats, axis=0)
                quad = [sum(np.sum(dmats[k, l] * dh[k] * dh[l]) for l in range(k + 1)) for k in range(s)]
                margins.append(-np.cumsum(quad) / tau - (stage_energies - energies[-1]))
            energies.append(p.energy(u, u_hat))
            sup_norms.append(np.max(np.abs(u)))
    return energies, sup_norms, margins, u, steps, None


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
@pytest.mark.parametrize("name,params", [("etd1", {}), ("eerk31", {"c2": "4/9"})])
def test_block_boundaries_do_not_change_the_path(name, params, monitor):
    # horizons on both sides of one and two 16-step blocks
    p = cahn_hilliard(m=639)
    u0 = 0.5 * np.sin(p.op.x) - 0.2 * np.sin(3 * p.op.x)
    t, tau = get_method(name, **params), 0.1
    horizons = [1, 15, 16, 17, 33]
    blocks = Blocks()
    longest = integrate(p, t, u0, tau, 33 * tau, monitor=monitor, on_block=blocks)
    steps = blocks.steps()
    for n in horizons:
        rep = integrate(p, t, u0, tau, n * tau, monitor=monitor)
        assert rep.n_steps == n and not rep.diverged
        energies, sup_norms, margins, final_state, want_steps, _ = _per_step_loop(
            p, t, u0, tau, n, monitor)
        want_steps = np.array(want_steps)
        assert np.max(np.abs(steps[:n] - want_steps)) <= 1e-12 * np.max(np.abs(want_steps))
        assert (rep.margins is None) == (not monitor)
        for got, want in [(rep.energies, energies), (rep.sup_norms, sup_norms),
                          (rep.final_state, final_state), (rep.margins, margins)]:
            if got is not None:
                want = np.asarray(want)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(rep.energies, longest.energies[:n + 1])
        assert np.array_equal(rep.sup_norms, longest.sup_norms[:n + 1])
        assert np.array_equal(rep.final_state, steps[n - 1, -1])
        if monitor:
            assert np.array_equal(rep.margins, longest.margins[:n])
    assert len(steps) == 33


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
@pytest.mark.parametrize("c,amplitude,failing", [
    (5000, 1e200, (11, 3)), (1000, 1e180, (17, 1)), (2000, 1e100, (24, 2))])
def test_divergence_mid_block_matches_per_step_loop(c, amplitude, failing, monitor):
    # a linear source c*u grows the state by about 1e10 a step until a
    # stage overflows; the amplitude puts the overflow at the last stage of
    # step 11, at the first stage of step 17 (which opens a block) and at
    # the second stage of step 24.  Neighbouring steps differ by orders of
    # magnitude, so a series or final state one step off fails at once
    op = build_laplacian_1d(2 * np.pi, 16)
    p = Problem(op, StabilizedSemilinear(kappa=0.1, g=lambda u: c * u,
                                         potential=lambda u: 0.0 * u))
    t = get_method("eerk31", c2="4/9")
    u0 = amplitude * np.sin(op.x)
    energies, sup_norms, margins, final_state, steps, failed = _per_step_loop(
        p, t, u0, 1.0, 100, monitor)
    assert failed == failing
    blocks = Blocks()
    rep = integrate(p, t, u0, 1.0, 100.0, monitor=monitor, on_block=blocks)
    assert rep.diverged and rep.diverged_step == failing[0]
    assert rep.n_steps == failing[0] - 1
    # only the finite steps are handed over, each once
    np.testing.assert_allclose(blocks.steps(), steps, rtol=1e-11, atol=0)
    # energies overflow before the state does; inf matches inf
    np.testing.assert_allclose(rep.energies, energies, rtol=1e-11, atol=0)
    np.testing.assert_allclose(rep.sup_norms, sup_norms, rtol=1e-11, atol=0)
    np.testing.assert_allclose(rep.final_state, final_state, rtol=1e-11, atol=0)
    if monitor:
        np.testing.assert_allclose(rep.margins, margins, rtol=1e-11, atol=0)
    else:
        assert rep.margins is None


REPORT_ARRAYS = ("times", "energies", "sup_norms", "final_state", "margins", "margin_floors")


def assert_same_report(got, want):
    # byte for byte: nan, inf and the sign of zero included
    assert (got.method, got.tau, got.diverged, got.diverged_step) == (
        want.method, want.tau, want.diverged, want.diverged_step)
    for name in REPORT_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


ENSEMBLES = {
    "eerk2w": [get_method("eerk2w", c2=c) for c in ("3/11", "1/2", "3/4", "1")],
    "eerk31": [get_method("eerk31", c2=c) for c in ("4/9", "1/2", "2/3", "1")],
    "cm4": [get_method(name) for name in ("cm4", "krogstad4", "sw4")],
}


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
@pytest.mark.parametrize("family", list(ENSEMBLES))
def test_ensemble_members_equal_their_own_runs(family, monitor):
    # the members share the 16 member-steps of a block (at m=639 the value
    # cap does not bind), so 4 members take blocks of 4 steps and 3 of 5;
    # horizons on both sides of one and two such blocks, against runs of
    # each member alone, which take blocks of 16
    p = cahn_hilliard(m=639)
    u0 = initial_profile("bumps", p.op.x)
    tableaux, tau = ENSEMBLES[family], 0.1
    block = 16 // len(tableaux)
    for n in (block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1):
        hooks = [Blocks() for _ in tableaux]
        ensemble = Ensemble(tableaux)
        reports = integrate(p, ensemble, u0, tau, n * tau, monitor, on_block=hooks)
        assert isinstance(reports, EnsembleReport) and len(reports) == len(tableaux)
        assert ensemble.stages == tableaux[0].stages
        assert reports.n_steps == n * len(tableaux) and not reports.diverged
        assert hooks[0][0][1].shape == (min(n, block), ensemble.stages, p.op.m)
        for t, report, blocks in zip(tableaux, reports, hooks):
            alone = Blocks()
            assert_same_report(report, integrate(p, t, u0, tau, n * tau, monitor, on_block=alone))
            assert np.array_equal(blocks.steps(), alone.steps())


@pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
def test_ensemble_of_one_is_the_single_run(monitor):
    p = cahn_hilliard(m=639)
    u0 = initial_profile("bumps", p.op.x)
    t = get_method("eerk31", c2="4/9")
    single, one = Blocks(), Blocks()
    want = integrate(p, t, u0, 0.1, 3.3, monitor, on_block=single)
    (got,) = integrate(p, [t], u0, 0.1, 3.3, monitor, on_block=[one])
    assert_same_report(got, want)
    assert [n0 for n0, _ in one] == [n0 for n0, _ in single] == [0, 16, 32]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(one, single))


# alone, eerk2w with these abscissas diverges at steps 5, 6 and 12 and not
# at all at tau=1, T=40; at tau=2, T=80 at steps 5, 6, 7 and 7, so that every
# member has diverged when the run stops
DIVERGING = {"some": (1.0, 40.0, [5, 6, 12, None], 4 + 5 + 11 + 40),
             "all": (2.0, 80.0, [5, 6, 7, 7], 4 + 5 + 6 + 6)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case,monitor", [
    pytest.param("some", False, id="plain"), pytest.param("some", True, id="monitor"),
    pytest.param("all", False, id="all-plain"), pytest.param("all", True, id="all-monitor")])
def test_diverged_members_leave_the_ensemble(case, monitor):
    # together, each member is reported at its own step as in its own run,
    # while the rows of the diverged ones stay in the buffers
    tau, t_final, diverged_steps, n_steps = DIVERGING[case]
    op = build_laplacian_1d(2 * np.pi, 63)
    p = Problem(op, CahnHilliard(eps=0.2, kappa=0.1))
    u0 = initial_profile("bumps", op.x)
    tableaux = [get_method("eerk2w", c2=c) for c in ("1/10", "3/11", "1/2", "1")]
    hooks = [Blocks() for _ in tableaux]
    reports = integrate(p, tableaux, u0, tau, t_final, monitor, on_block=hooks)
    assert [r.diverged_step for r in reports] == diverged_steps
    assert reports.diverged and reports.n_steps == n_steps
    for t, report, blocks in zip(tableaux, reports, hooks):
        alone = Blocks()
        assert_same_report(report, integrate(p, t, u0, tau, t_final, monitor, on_block=alone))
        assert np.array_equal(blocks.steps(), alone.steps())


def test_ensemble_rejects_empty_and_mixed_stage_counts():
    p = cahn_hilliard(m=24)
    u0 = 0.3 * np.sin(p.op.x)
    two, three = get_method("eerk2w", c2="1/2"), get_method("eerk31", c2="4/9")
    for tableaux in ([], [two, three], [three, two, three]):
        with pytest.raises(ValueError):
            Ensemble(tableaux)
        with pytest.raises(ValueError):
            integrate(p, tableaux, u0, 0.1, 0.2)
    with pytest.raises(ValueError):
        integrate(p, [two, two], u0, 0.1, 0.2, on_block=[Blocks()])
