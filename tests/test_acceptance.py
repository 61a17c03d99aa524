"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (the full-resolution
convergence tables take a couple of minutes).
"""

import math
import time

import numpy as np
import pytest

from eerk.bench import ExperimentConfig, run_convergence
from eerk.dissipation import (
    average_dissipation_rate,
    classify_method,
    differentiation_matrix,
)
from eerk.integrator import integrate
from eerk.phi import phi
from eerk.spatial import CahnHilliard, Problem, StabilizedSemilinear
from eerk.tableaux import butcher_diff, coefficient_matrix, get_method
from oracles import apply, build_laplacian_1d, differentiation_matrix_inverse_route, doc_identity_residual

EPS = np.finfo(float).eps

TWELVE_METHODS = [
    ("etd1", {}),
    ("eerk2", {"c2": "1/2"}),
    ("eerk2w", {"c2": "3/11"}),
    ("eerk2s", {"c2": "3/4"}),
    ("eerk31", {"c2": "4/9"}),
    ("eerk32", {"c2": "3/4", "c3": "3/5"}),
    ("etd3rk", {}),
    ("etd2cf3", {}),
    ("cm4", {}),
    ("krogstad4", {}),
    ("sw4", {}),
    ("ho4", {}),
]

Z_SET = np.array([-1e-4, -0.1, -1.0, -10.0, -100.0, -1e4])


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def benchmark_problem():
    op = build_laplacian_1d(2 * np.pi, 639)
    return Problem(op, CahnHilliard(eps=0.2, kappa=2.0))


@pytest.fixture(scope="module")
def bumps_state(benchmark_problem):
    x = benchmark_problem.op.x
    return (np.tanh(2.0 * np.sin(x)) / 3.0
            - np.exp(-23.5 * (x - np.pi / 2) ** 2)
            + np.exp(-27.0 * (x - 4.2) ** 2)
            + np.exp(-38.0 * (x - 5.4) ** 2))


def test_criterion_1_phi_golden_values():
    start = time.perf_counter()
    worst_zero = max(abs(phi(k, 0.0) - 1.0 / math.factorial(k)) * math.factorial(k)
                     for k in range(4))
    gap_phi1 = abs(phi(1, -1.0) - (1.0 - math.exp(-1.0)))
    grid = -np.logspace(np.log10(1e-8), np.log10(100.0), 800)
    worst_rec = 0.0
    for k in range(4):
        pk, pk1 = phi(k, grid), phi(k + 1, grid)
        resid = np.abs(grid * pk1 + 1.0 / math.factorial(k) - pk)
        worst_rec = max(worst_rec, float(np.max(resid / np.maximum(1.0, np.abs(pk)))))
    elapsed = time.perf_counter() - start
    ok = worst_zero <= 1e-15 and gap_phi1 <= 1e-14 and worst_rec <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"phi(0) rel {worst_zero:.1e}, phi1(-1) {gap_phi1:.1e}, "
                   f"recursion {worst_rec:.1e} on 800 pts, {elapsed:.2f}s")


def test_criterion_2_doc_orthogonality_and_two_routes():
    start = time.perf_counter()
    worst_doc = 0.0
    worst_gap = 0.0
    worst_excess = 0.0  # gap beyond the per-element float64 granularity floor
    for name, params in TWELVE_METHODS:
        t = get_method(name, **params)
        worst_doc = max(worst_doc, doc_identity_residual(butcher_diff(t), Z_SET))
        d1 = differentiation_matrix(t, Z_SET)
        d2 = differentiation_matrix_inverse_route(t, Z_SET)
        gap = np.abs(d1 - d2)
        worst_gap = max(worst_gap, float(np.max(gap)))
        floor = np.maximum(1e-10, 32 * EPS * np.abs(d1))
        worst_excess = max(worst_excess, float(np.max(gap - floor)))
    elapsed = time.perf_counter() - start
    ok = worst_doc <= 1e-10 and worst_excess <= 0.0 and elapsed < 5.0
    _report(2, ok, f"DOC residual {worst_doc:.1e} (<=1e-10), route gap {worst_gap:.1e} "
                   f"within max(1e-10, 32*eps*|D|) per element, {elapsed:.2f}s")


def test_criterion_3_row_sum_equilibria_identity():
    worst = 0.0
    for name, params in TWELVE_METHODS:
        t = get_method(name, **params)
        a = coefficient_matrix(t, Z_SET)
        for i in range(t.stages):
            target = np.expm1(float(t.c[i + 1]) * Z_SET) / Z_SET
            worst = max(worst, float(np.max(np.abs(a[:, i, : i + 1].sum(axis=-1) - target))))
    ok = worst <= 1e-11
    _report(3, ok, f"row-sum residual {worst:.1e} (<= 1e-11) on 6-point z set")


def test_criterion_4_classification_tables():
    start = time.perf_counter()
    psd_cases = ([("etd1", {})]
                 + [("eerk2", {"c2": c}) for c in ("1/2", "3/4", "1")]
                 + [("eerk2w", {"c2": c}) for c in ("3/11", "1/2", "1")]
                 + [("eerk31", {"c2": c}) for c in ("4/9", "2/3", "1")]
                 + [("eerk32", {"c2": "1", "c3": "1/2"}),
                    ("eerk32", {"c2": "3/4", "c3": "3/5"}),
                    ("eerk32", {"c2": "1/2", "c3": "7/10"})])
    npd_names = ["etd3rk", "etd2cf3", "cm4", "krogstad4", "sw4", "ho4"]
    failures = []
    for name, params in psd_cases:
        c = classify_method(get_method(name, **params))
        if not c.is_psd:
            failures.append(f"{name}{params} -> {c.verdict}")
    witnesses = {}
    for name in npd_names:
        c = classify_method(get_method(name))
        witnesses[name] = c.witness
        if c.verdict != "NPD" or c.witness is None:
            failures.append(f"{name} -> {c.verdict}")
    if witnesses.get("etd2cf3") is not None and witnesses["etd2cf3"].z >= -6.0:
        failures.append(f"etd2cf3 witness {witnesses['etd2cf3'].z:.4g} not < -6")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    wz = witnesses.get("etd2cf3")
    _report(4, ok, f"{len(psd_cases)} PSD + {len(npd_names)} NPD reproduced "
                   f"(etd2cf3 witness z0={wz.z:.4g}), {elapsed:.1f}s"
                   + (f"; failures: {failures}" if failures else ""))


def test_criterion_5_average_rate_limits():
    z0 = -1e-8
    worst = 0.0
    for c2s, c2 in [("1/2", 0.5), ("3/4", 0.75), ("1", 1.0)]:
        worst = max(worst, abs(average_dissipation_rate(get_method("eerk2", c2=c2s), z0)
                               - (1 / (2 * c2) + c2)))
        worst = max(worst, abs(average_dissipation_rate(get_method("eerk2s", c2=c2s), z0)
                               - (2 / 3 + (2 / 3) * (c2 + 1 / (2 * c2)))))
    for c2s, c2 in [("4/9", 4 / 9), ("2/3", 2 / 3), ("1", 1.0)]:
        worst = max(worst, abs(average_dissipation_rate(get_method("eerk31", c2=c2s), z0)
                               - (1.5 * c2 + 1 / (3 * c2) + 4 / 9)))
    grid = -np.logspace(-6, 3.5, 120)
    worst_var = 0.0
    for name, params in TWELVE_METHODS:
        t = get_method(name, **params)
        r = average_dissipation_rate(t, grid)
        rt = average_dissipation_rate(t, grid, "implicit")
        worst_var = max(worst_var, float(np.max(np.abs(rt - (r + grid / 2))
                                                / np.maximum(1.0, np.abs(r)))))
    ok = worst <= 1e-6 and worst_var <= 1e-12
    _report(5, ok, f"limit gap {worst:.1e} (<= 1e-6), implicit offset residual "
                   f"{worst_var:.1e} (<= 1e-12)")


# Golden error/order tables for the standard benchmark (sine initial data,
# kappa = 2, h = pi/320, T = 8, halving steps from 0.01, reference method at
# tau/32).  Orders must match to +-0.15 and errors to within a factor of 2.
GOLDEN_SECOND_ORDER = {
    "eerk2w:c2=1": ([6.106e-3, 1.750e-3, 4.744e-4, 1.220e-4], [1.80, 1.88, 1.96]),
    "eerk2w:c2=3/4": ([5.149e-3, 1.462e-3, 3.932e-4, 1.001e-4], [1.82, 1.89, 1.97]),
    "eerk2w:c2=1/2": ([4.122e-3, 1.161e-3, 3.098e-4, 7.798e-5], [1.83, 1.91, 1.99]),
    "eerk2w:c2=3/11": ([3.119e-3, 8.756e-4, 2.323e-4, 5.756e-5], [1.83, 1.91, 2.01]),
}

GOLDEN_THIRD_ORDER = {
    "eerk31:c2=1": ([6.369e-4, 1.107e-4, 1.737e-5, 2.511e-6], [2.52, 2.67, 2.79]),
    "eerk31:c2=2/3": ([4.670e-4, 7.922e-5, 1.218e-5, 1.729e-6], [2.56, 2.70, 2.82]),
    "eerk31:c2=1/2": ([3.708e-4, 6.202e-5, 9.425e-6, 1.321e-6], [2.58, 2.72, 2.83]),
    "eerk31:c2=4/9": ([3.368e-4, 5.604e-5, 8.479e-6, 1.183e-6], [2.59, 2.72, 2.84]),
}


def _convergence_table(criterion, methods, reference, expected, limit):
    start = time.perf_counter()
    cfg = ExperimentConfig(methods=methods, ref_method=reference)
    results = run_convergence(cfg)
    failures = []
    worst_ratio, worst_order_gap = 1.0, 0.0
    for label, (gold_errs, gold_orders) in expected.items():
        rows = results[label]
        for row, e_gold in zip(rows, gold_errs):
            ratio = row.error / e_gold
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
            if not 0.5 <= ratio <= 2.0:
                failures.append(f"{label} tau={row.tau}: error {row.error:.3e} vs {e_gold:.3e}")
        for row, o_gold in zip(rows[1:], gold_orders):
            gap = abs(row.order - o_gold)
            worst_order_gap = max(worst_order_gap, gap)
            if gap > 0.15:
                failures.append(f"{label} tau={row.tau}: order {row.order:.2f} vs {o_gold}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < limit
    _report(criterion, ok,
            f"max error ratio {worst_ratio:.3f} (<= 2), max order gap {worst_order_gap:.3f} "
            f"(<= 0.15), {elapsed:.0f}s" + (f"; {failures}" if failures else ""))


def test_criterion_6_second_order_convergence_table():
    _convergence_table(6, [f"eerk2w:c2={c}" for c in ("1", "3/4", "1/2", "3/11")],
                       "eerk2w:c2=3/11", GOLDEN_SECOND_ORDER, 300.0)


def test_criterion_7_third_order_convergence_table():
    _convergence_table(7, [f"eerk31:c2={c}" for c in ("1", "2/3", "1/2", "4/9")],
                       "eerk31:c2=4/9", GOLDEN_THIRD_ORDER, 300.0)


def test_criterion_8_energy_monotonicity_and_stage_margins(benchmark_problem, bumps_state):
    start = time.perf_counter()
    cases = ([("eerk2w", c) for c in ("3/11", "1/2", "3/4", "1")]
             + [("eerk31", c) for c in ("4/9", "1/2", "2/3", "1")])
    failures = []
    worst_margin = np.inf
    for name, c2 in cases:
        t = get_method(name, c2=c2)
        run_start = time.perf_counter()
        rep = integrate(benchmark_problem, t, bumps_state, 0.1, 160.0, monitor=True)
        run_elapsed = time.perf_counter() - run_start
        if rep.diverged:
            failures.append(f"{t.label} diverged")
            continue
        scale = np.abs(rep.energies[:-1])
        if np.any(np.diff(rep.energies) > 1e-10 * scale):
            failures.append(f"{t.label} energy increased")
        margin_scale = max(1.0, float(np.max(np.abs(rep.energies))))
        worst_margin = min(worst_margin, float(rep.margins.min()))
        if np.any(rep.margins < -1e-9 * margin_scale):
            failures.append(f"{t.label} margin {rep.margins.min():.2e}")
        if run_elapsed >= 180.0:
            failures.append(f"{t.label} took {run_elapsed:.0f}s")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(8, ok, f"8 runs to T=160 monotone, min stage margin {worst_margin:.2e}, "
                   f"{elapsed:.0f}s total" + (f"; {failures}" if failures else ""))


def test_criterion_9_stabilization_and_step_size_effects(benchmark_problem, bumps_state):
    start = time.perf_counter()
    op = benchmark_problem.op
    t = get_method("eerk31", c2="4/9")
    failures = []

    # under-stabilized run develops non-physical energy oscillations
    weak = Problem(op, CahnHilliard(eps=0.2, kappa=0.1))
    rep = integrate(weak, t, bumps_state, 0.1, 160.0)
    increases = np.diff(rep.energies) > 1e-10 * np.abs(rep.energies[:-1])
    if not np.any(increases):
        failures.append("kappa=0.1 run stayed monotone")
    n_osc = int(np.sum(increases))

    # larger kappa dissipates faster (energy at t = 20)
    at20 = {}
    for kappa in (1.0, 2.0, 4.0):
        p = Problem(op, CahnHilliard(eps=0.2, kappa=kappa))
        r = integrate(p, t, bumps_state, 0.1, 20.0)
        at20[kappa] = r.energies[-1]
    if not (at20[1.0] > at20[2.0] > at20[4.0]):
        failures.append(f"kappa ordering broken: {at20}")

    # larger tau dissipates faster, each run monotone at kappa = 2
    tau_at20 = {}
    for tau in (0.5, 0.1, 0.05, 0.01):
        r = integrate(benchmark_problem, t, bumps_state, tau, 20.0)
        tau_at20[tau] = r.energies[-1]
        if np.any(np.diff(r.energies) > 1e-10 * np.abs(r.energies[:-1])):
            failures.append(f"tau={tau} run not monotone")
    if not (tau_at20[0.5] < tau_at20[0.1] < tau_at20[0.05] < tau_at20[0.01]):
        failures.append(f"tau ordering broken: {tau_at20}")

    elapsed = time.perf_counter() - start
    ok = not failures
    _report(9, ok, f"kappa=0.1 shows {n_osc} energy increases; E(20) ordered in "
                   f"kappa and tau, {elapsed:.0f}s" + (f"; {failures}" if failures else ""))


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(20240404)
    op = build_laplacian_1d(2 * np.pi, 48)
    failures = []

    # transform round trip
    v = rng.standard_normal(48)
    if np.max(np.abs(op.inverse(op.forward(v)) - v)) > 1e-12:
        failures.append("round trip")

    # spectral composition
    f = lambda lam: 1.0 / (1.0 + lam)
    g = lambda lam: np.exp(-1e-3 * lam)
    left = apply(op, f, apply(op, g, v))
    right = apply(op, lambda lam: f(lam) * g(lam), v)
    if np.max(np.abs(left - right)) > 1e-11 * np.max(np.abs(right)):
        failures.append("composition")

    # linear exactness over 10 steps for every catalog method
    decay = Problem(op, StabilizedSemilinear(kappa=0.0, g=lambda u: 0.0 * u,
                                             potential=lambda u: 0.0 * u))
    u0 = rng.standard_normal(48)
    exact = apply(op, lambda lam: np.exp(-0.5 * lam), u0)
    for name, params in TWELVE_METHODS:
        rep = integrate(decay, get_method(name, **params), u0, 0.05, 0.5)
        if np.max(np.abs(rep.final_state - exact)) > 1e-9:
            failures.append(f"linear exactness {name}")

    # equilibria preservation with a frozen nonlinearity
    kappa = 0.8
    u_star = rng.standard_normal(48)
    lk_u_star = apply(op, lambda lam: lam + kappa, u_star)
    frozen = Problem(op, StabilizedSemilinear(kappa=kappa, g=lambda u: lk_u_star - kappa * u,
                                              potential=lambda u: 0.0 * u))
    for name, params in TWELVE_METHODS:
        rep = integrate(frozen, get_method(name, **params), u_star, 0.25, 2.5)
        if np.max(np.abs(rep.final_state - u_star)) > 1e-10 * np.max(np.abs(u_star)):
            failures.append(f"equilibria {name}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(10, ok, f"round-trip, composition, linear-exactness and equilibria "
                    f"properties on seeded inputs, {elapsed:.1f}s"
                    + (f"; {failures}" if failures else ""))
