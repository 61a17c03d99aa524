"""Generic EERK stage loop with optional stage-energy-law monitoring.

One step of an s-stage method applied to the stabilized problem
``u' = -L u + g(u)`` reads, entirely in the sine eigenbasis,

    U^{i+1} = U^1 + sum_{j<=i} a_{i+1,j}(-tau*mu) [tau*g(U^j) - tau*mu*U^1]
            = b_i U^1 + sum_{j<=i} tau a_{i+1,j} g(U^j)

for ``i = 1..s``, with ``b_i = 1 - tau*mu sum_j a_{i+1,j}`` and ``mu`` the
eigenvalue map of the stiff operator.  ``tau a_{i+1,j}`` and ``b_i`` are
evaluated once per eigenvalue and cached for the run.  The state is carried
in sine coefficients from step to step: each stage transforms only its
nonlinearity forward and its result back, so a step costs ``2s`` sine
transforms and fills two ``(s+1, m)`` arrays, the stages and their
coefficients.  An unmonitored run evaluates one energy per step, that of
the new state, from coefficients it already holds.

When monitoring is on, each step also computes its stage energies in one
call and records the slack ("margin") of the stage energy inequality

    E[U^{j+1}] - E[U^1]  <=  -(1/tau) * sum_{k<=j} <dU^{k+1},
                                sum_{l<=k} d_{kl}(-tau*mu) dU^{l+1}>

in the problem's metric (H^{-1} for Cahn-Hilliard, L^2 otherwise), where
``dU^{i+1} = U^{i+1} - U^i`` and ``d_{kl}`` is the differentiation matrix
evaluated per eigenvalue.  Every term is diagonal in the sine basis, so the
quadratic forms are one contraction of a metric-weighted ``(s, s, m)``
cache of ``d_{kl}`` with the coefficient increments, and a cumulative sum.
Nonnegative margins certify that the inequality held for that step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from eerk.dissipation import differentiation_matrix
from eerk.phi import evaluate
from eerk.spatial import Problem
from eerk.tableaux import Tableau

__all__ = [
    "DivergenceError",
    "StepRecord",
    "RunReport",
    "step",
    "integrate",
]


class DivergenceError(ArithmeticError):
    """A stage produced non-finite values."""

    def __init__(self, step_index: int):
        super().__init__(f"non-finite state at step {step_index}")
        self.step_index = step_index


@dataclass
class StepRecord:
    """Stages, stage increments, energies and margins of one step."""

    stages: np.ndarray  # (s+1, m): U^{n,1} .. U^{n,s+1}
    deltas: np.ndarray  # (s, m): U^{n,i+1} - U^{n,i} for i = 1..s
    energies: np.ndarray  # E[U^{n,j}] for j = 1..s+1
    margins: Optional[np.ndarray] = None  # slack of the stage law, j = 1..s


class _StepWorkspace:
    """Folded spectral coefficient cache for a fixed (problem, tableau, tau)."""

    def __init__(self, problem: Problem, tableau: Tableau, tau: float, monitor: bool):
        if tau <= 0:
            raise ValueError(f"step size must be positive, got {tau}")
        self.problem = problem
        self.tau = float(tau)
        op = problem.op
        tau_mu = self.tau * problem.spectral_shift(op.eigenvalues)
        s = tableau.stages
        # a_{i+1,j}(z) per eigenvalue, zero above the diagonal
        a = np.zeros((s, s, op.m))
        for i, row in enumerate(tableau.rows):
            for j, entry in enumerate(row):
                a[i, j] = evaluate(entry, -tau_mu)
        self.b = 1.0 - tau_mu * a.sum(axis=1)
        self.coeff = self.tau * a
        self.dmats = None
        if monitor:
            # d_{kl}(z), zero above the diagonal, times the metric weight
            d = differentiation_matrix(tableau, -tau_mu)
            weight = op.h / op.eigenvalues if problem.metric == "hminus1" else op.h
            self.dmats = np.ascontiguousarray(np.moveaxis(d, 0, -1) * weight)

    def stages(self, u1: np.ndarray, u1_hat: np.ndarray, index: int):
        """Stages ``U^1..U^{s+1}`` and their sine coefficients, as two
        ``(s+1, m)`` arrays, from ``U^1`` and its coefficients; the caller
        guards against overflow warnings."""
        problem, op = self.problem, self.problem.op
        u = np.empty((len(self.b) + 1, op.m))
        u_hat = np.empty_like(u)
        g_hats = np.empty_like(self.b)
        u[0], u_hat[0] = u1, u1_hat
        for i, (row, b) in enumerate(zip(self.coeff, self.b)):
            g_hats[i] = problem.g_stabilized(u[i])
            u_hat[i + 1] = b * u1_hat + (row[:i + 1] * g_hats[:i + 1]).sum(axis=0)
            u[i + 1] = op.inverse(u_hat[i + 1])
            if not np.all(np.isfinite(u[i + 1])):
                raise DivergenceError(index)
        return u, u_hat

    def margins(self, u_hat: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """Margins of a step from its stage coefficients and its energy gaps
        ``E[U^{j+1}] - E[U^1]``."""
        delta_hats = np.diff(u_hat, axis=0)
        quad = np.einsum("klm,km,lm->k", self.dmats, delta_hats, delta_hats)
        return -np.cumsum(quad) / self.tau - gaps


def step(problem: Problem, tableau: Tableau, u_prev, tau: float,
         monitor: bool = False) -> StepRecord:
    """Advance one step from ``u_prev``; see the module docstring.

    Builds the coefficient cache on the fly; for multi-step runs use
    :func:`integrate`, which caches across steps.
    """
    ws = _StepWorkspace(problem, tableau, tau, monitor)
    u = np.asarray(u_prev, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        stages, hats = ws.stages(u, problem.op.forward(u), 0)
        energies = problem.energy(stages, hats)
        margins = ws.margins(hats, energies[1:] - energies[0]) if monitor else None
    return StepRecord(stages, np.diff(stages, axis=0), energies, margins)


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
    diverged: bool
    diverged_step: Optional[int]
    wall_time: float

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _step_count(t_final: float, tau: float) -> int:
    ratio = t_final / tau
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 8 * np.spacing(max(1.0, ratio)):
        raise ValueError(f"final time {t_final} is not an integer multiple of tau {tau}")
    return int(n)


def integrate(problem: Problem, tableau: Tableau, u0, tau: float, t_final: float,
              monitor: bool = False, snapshot_steps=None, snapshots=None) -> RunReport:
    """Run ``t_final / tau`` steps from ``u0``.

    ``snapshot_steps``/``snapshots``: optional container of step numbers
    and a mapping; after step ``n`` in the container, a copy of the state is
    stored under key ``n`` (used by the convergence driver to sample a
    reference run and to fold the errors of a coarse run).  On divergence
    the report is truncated at the last finite step and flagged.
    """
    n_steps = _step_count(t_final, tau)
    if snapshot_steps is not None and snapshots is None:
        raise ValueError("snapshot_steps given without a snapshots dict")
    u = np.asarray(u0, dtype=float).copy()
    u_hat = problem.op.forward(u)
    ws = _StepWorkspace(problem, tableau, tau, monitor)
    energies = [problem.energy(u, u_hat)]
    sup_norms = [float(np.max(np.abs(u)))]
    margins = [] if monitor else None
    diverged, diverged_step = False, None
    start = time.perf_counter()
    # overflow in a blowing-up nonlinearity is handled via the divergence
    # check, not floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            try:
                stages, hats = ws.stages(u, u_hat, n)
            except DivergenceError as err:
                diverged, diverged_step = True, err.step_index
                break
            u, u_hat = stages[-1], hats[-1]
            if monitor:
                stage_energies = problem.energy(stages[1:], hats[1:])
                margins.append(ws.margins(hats, stage_energies - energies[-1]))
                energies.append(stage_energies[-1])
            else:
                energies.append(problem.energy(u, u_hat))
            sup_norms.append(float(np.max(np.abs(u))))
            if snapshot_steps is not None and n in snapshot_steps:
                snapshots[n] = u.copy()
    wall = time.perf_counter() - start
    times = tau * np.arange(len(energies))
    return RunReport(
        method=tableau.label,
        tau=tau,
        times=times,
        energies=np.asarray(energies),
        sup_norms=np.asarray(sup_norms),
        final_state=u,
        margins=np.asarray(margins) if monitor and margins else None,
        diverged=diverged,
        diverged_step=diverged_step,
        wall_time=wall,
    )
