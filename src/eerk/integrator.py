"""Generic EERK stage loop with optional stage-energy-law monitoring.

One step of an s-stage method applied to the stabilized problem
``u' = -L u + g(u)`` reads, entirely in the sine eigenbasis,

    U^{i+1} = U^1 + sum_{j<=i} a_{i+1,j}(-tau*mu) [tau*g(U^j) - tau*mu*U^1]
            = b_i U^1 + sum_{j<=i} tau a_{i+1,j} g(U^j)

for ``i = 1..s``, with ``b_i = 1 - tau*mu sum_j a_{i+1,j}`` and ``mu`` the
eigenvalue map of the stiff operator.  ``b_i`` and ``tau a_{i+1,j}`` are
evaluated once per eigenvalue and cached for the run as one ``(s, s+1, m)``
array, so each stage is one contraction of its row with the terms
``[U^1, g(U^1) .. g(U^s)]`` in sine coefficients.  The state is carried in
sine coefficients from step to step: each stage transforms only its
physical-space nonlinearity forward and its result back, so a step costs
``2s`` sine transforms.  Each is ``op.forward`` done bit for bit in
preallocated per-run buffers from ``op.odd_buffer`` and
``op.spectrum_buffer``, through ``op.transform_odd``.

The loop runs in blocks of up to 16 steps.  The steps of a block write their
stages into one ``(16s+1, m)`` buffer and its sine-coefficient twin, each
step starting from the row where the previous one ended.  Only then is the
block checked and recorded, with one call for each job: the sup-norms of all
stage rows, whose first non-finite value names the diverged step (the report
stops before it, and the later steps of the block are dropped); the energies
of the step ends, or of every stage when monitoring; and the margins.  A
caller that needs more than the report (the convergence driver samples the
step ends) passes ``on_block``, which then receives the finite steps of the
block as one ``(k, s, m)`` view of the stage buffer.  A buffer holds at most
2**16 values, so an s-stage method takes shorter blocks on meshes above
``4096/s`` points.

When monitoring is on, each step also records the slack ("margin") of the
stage energy inequality

    E[U^{j+1}] - E[U^1]  <=  -(1/tau) * sum_{k<=j} <dU^{k+1},
                                sum_{l<=k} d_{kl}(-tau*mu) dU^{l+1}>

in the problem's metric (H^{-1} for Cahn-Hilliard, L^2 otherwise), where
``dU^{i+1} = U^{i+1} - U^i`` and ``d_{kl}`` is the differentiation matrix
per eigenvalue, built from the same evaluated ``a_{i+1,j}`` as the
coefficient cache.  Every term is diagonal in the sine basis, so the
quadratic forms of a block are one contraction of a metric-weighted
``(s, s, m)`` cache of ``d_{kl}`` with the coefficient increments, and a
cumulative sum.  Nonnegative margins certify that the inequality held for
that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from eerk.dissipation import _from_coefficients
from eerk.spatial import Problem
from eerk.tableaux import Tableau, coefficient_matrix

# steps per block, and stage values per block buffer (512 kB), so that a
# large mesh does not pay for the batching in memory
_BLOCK_STEPS = 16
_BLOCK_VALUES = 2**16
# a margin is a difference of terms of size |E|; this many units of
# roundoff of those terms is its floor
_FLOOR_ULPS = 4

__all__ = ["RunReport", "integrate"]


class _StepWorkspace:
    """Folded spectral coefficient cache for a fixed (problem, tableau, tau),
    and the stage buffers of one run with ``rows`` stage rows."""

    def __init__(self, problem: Problem, tableau: Tableau, tau: float, monitor: bool, rows: int):
        if tau <= 0:
            raise ValueError(f"step size must be positive, got {tau}")
        self.problem = problem
        self.tau = float(tau)
        op = problem.op
        m = op.m
        tau_mu = self.tau * problem.spectral_shift(op.eigenvalues)
        s = tableau.stages
        # a_{i+1,j}(z) per eigenvalue, zero above the diagonal: the one
        # evaluation of the tableau in a run
        a_z = coefficient_matrix(tableau, -tau_mu)
        a = np.ascontiguousarray(np.moveaxis(a_z, 0, -1))
        # stage i+1 contracts row i with the terms [U_hat^1, g_1 .. g_s],
        # g_j = factor * DST(N(U^j)) with N the physical-space nonlinearity:
        # column 0 holds b_i, column j the folded tau a_{i+1,j} * factor
        coeff = np.empty((s, s + 1, m))
        coeff[:, 0] = 1.0 - tau_mu * a.sum(axis=1)
        coeff[:, 1:] = self.tau * a * problem.nonlinearity_factor
        # both transforms of a stage are op.forward done in run buffers: the
        # stage buffers hold the physical rows and the odd extensions of
        # their sine coefficients, and the nonlinearity of a stage is written
        # into one more odd extension
        self.u = np.empty((rows, m))
        self.u_odd, self.u_hat, self.u_tail = op.odd_buffer((rows,))
        self.n_odd, self.n_phys, self.n_tail = op.odd_buffer()
        # spectrum row j >= 1 holds the transform of N(U^j), and the
        # coefficient view of row 0 holds U_hat^1, so the terms are one view
        spectra, self.terms = op.spectrum_buffer((s + 1,))
        # stage i+1 reads only the terms already formed
        self.rows = [(coeff[i, :i + 2], self.terms[:i + 2], spectra[i + 1]) for i in range(s)]
        self.back, self.back_coeffs = op.spectrum_buffer()
        self.dmats = None
        if monitor:
            # d_{kl}(z), zero above the diagonal, times the metric weight
            d = _from_coefficients(a_z, -tau_mu, "standard", tableau.label)
            weight = op.h / op.eigenvalues if problem.metric == "hminus1" else op.h
            self.dmats = np.ascontiguousarray(np.moveaxis(d, 0, -1) * weight)

    def advance(self, r: int) -> None:
        """Fill rows ``r+1..r+s`` of the stage buffers ``u`` and ``u_hat``
        with the stages of the step from row ``r``.  No row is checked for
        divergence; the caller does that and guards against overflow
        warnings."""
        u, u_hat, u_odd, u_tail = self.u, self.u_hat, self.u_odd, self.u_tail
        n_odd, n_phys, n_tail = self.n_odd, self.n_phys, self.n_tail
        nonlinearity, transform = self.problem.nonlinearity, self.problem.op.transform_odd
        back, back_coeffs = self.back, self.back_coeffs
        self.terms[0] = u_hat[r]
        for i, (row, terms, spectrum) in enumerate(self.rows, start=r):
            nonlinearity(u[i], out=n_phys)
            np.negative(n_phys, out=n_tail)
            transform(n_odd, spectrum)
            np.einsum("jm,jm->m", row, terms, out=u_hat[i + 1])
            np.negative(u_hat[i + 1], out=u_tail[i + 1])
            transform(u_odd[i + 1], back)
            np.copyto(u[i + 1], back_coeffs)

    def margins(self, u_hat: np.ndarray, energies: np.ndarray, start: np.ndarray) -> tuple:
        """Margins, shape ``(k, s)``, of ``k`` consecutive steps from their
        ``k*s + 1`` stage coefficient rows, their stage energies
        ``E[U^{j+1}]``, shape ``(k, s)``, and their start energies
        ``E[U^1]``, shape ``(k,)``; and the rounding floor of each margin,
        a few ulps of the terms it subtracts."""
        k, s = energies.shape
        delta_hats = np.diff(u_hat, axis=0).reshape(k, s, -1)
        quad = np.einsum("klm,nkm,nlm->nk", self.dmats, delta_hats, delta_hats)
        drop = np.cumsum(quad, axis=1) / self.tau
        start = start[:, None]
        floors = _FLOOR_ULPS * np.finfo(float).eps * (np.abs(energies) + np.abs(start) + np.abs(drop))
        return -drop - (energies - start), floors


@dataclass
class RunReport:
    """Per-run series: energies, sup-norms, margins and the final state."""

    method: str
    tau: float
    times: np.ndarray
    energies: np.ndarray
    sup_norms: np.ndarray
    final_state: np.ndarray
    margins: Optional[np.ndarray]  # (n_steps, s) when monitored
    margin_floors: Optional[np.ndarray]  # rounding floor of each margin
    diverged: bool
    diverged_step: Optional[int]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def energy_law(self) -> Optional[str]:
        """``held`` when every margin is nonnegative, ``held within
        rounding`` when no margin lies below minus its rounding floor, and
        ``violated`` otherwise; None without margins."""
        if self.margins is None:
            return None
        if np.all(self.margins >= 0):
            return "held"
        if np.all(self.margins >= -self.margin_floors):
            return "held within rounding"
        return "violated"


def _step_count(t_final: float, tau: float) -> int:
    ratio = t_final / tau
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 8 * np.spacing(max(1.0, ratio)):
        raise ValueError(f"final time {t_final} is not an integer multiple of tau {tau}")
    return int(n)


def integrate(problem: Problem, tableau: Tableau, u0, tau: float, t_final: float,
              monitor: bool = False, *, on_block=None) -> RunReport:
    """Run ``t_final / tau`` steps from ``u0``; ``t_final = 0`` gives the
    report of the initial state alone.  On divergence the report is
    truncated at the last finite step and flagged.

    ``on_block(n0, stages)``, if given, is called after each checked block
    of steps ``n0+1 .. n0+k`` with the ``(k, s, m)`` view ``stages`` of
    their stages ``U^2 .. U^{s+1}``, so ``stages[j, -1]`` ends step
    ``n0+j+1``.  The view is valid only during the call.  Diverged steps
    are never handed over.
    """
    n_steps = 0 if t_final == 0 else _step_count(t_final, tau)
    s, m = tableau.stages, problem.op.m
    block = max(1, min(_BLOCK_STEPS, _BLOCK_VALUES // (s * m)))
    ws = _StepWorkspace(problem, tableau, tau, monitor, block * s + 1)
    u, u_hat = ws.u, ws.u_hat
    u[0] = u0
    u_hat[0] = problem.op.forward(u[0])
    energies = [problem.energy(u[:1], u_hat[:1])]
    sup_norms = [np.max(np.abs(u[:1]), axis=1)]
    margins, floors = [], []
    diverged_step = None
    # overflow in a blowing-up nonlinearity is handled via the divergence
    # check, not floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n0 in range(0, n_steps, block):
            k = min(block, n_steps - n0)
            for r in range(0, k * s, s):
                ws.advance(r)
            # the sup-norm of a row is finite only if the whole row is
            sup = np.max(np.abs(u[1:k * s + 1]), axis=1)
            bad = np.flatnonzero(~np.isfinite(sup))
            if bad.size:
                k = int(bad[0]) // s
                diverged_step = n0 + k + 1
            if k:
                ends = slice(s, k * s + 1, s)
                sup_norms.append(sup[s - 1:k * s:s])
                if monitor:
                    stage_energies = problem.energy(u[1:k * s + 1], u_hat[1:k * s + 1]).reshape(k, s)
                    starts = np.concatenate((energies[-1][-1:], stage_energies[:-1, -1]))
                    block_margins, block_floors = ws.margins(u_hat[:k * s + 1], stage_energies, starts)
                    margins.append(block_margins)
                    floors.append(block_floors)
                    energies.append(stage_energies[:, -1])
                else:
                    energies.append(problem.energy(u[ends], u_hat[ends]))
                if on_block is not None:
                    on_block(n0, u[1:k * s + 1].reshape(k, s, m))
                u[0], u_hat[0] = u[k * s], u_hat[k * s]
            if diverged_step is not None:
                break
    energies = np.concatenate(energies)
    return RunReport(
        method=tableau.label,
        tau=tau,
        times=tau * np.arange(len(energies)),
        energies=energies,
        sup_norms=np.concatenate(sup_norms),
        final_state=u[0].copy(),
        margins=np.concatenate(margins) if margins else None,
        margin_floors=np.concatenate(floors) if floors else None,
        diverged=diverged_step is not None,
        diverged_step=diverged_step,
    )
