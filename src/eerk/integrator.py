"""Generic EERK stage loop with optional stage-energy-law monitoring.

One step of an s-stage method applied to the stabilized problem
``u' = -L u + g(u)`` reads, entirely in the sine eigenbasis,

    U^{i+1} = U^1 + sum_{j<=i} a_{i+1,j}(-tau*mu) [tau*g(U^j) - tau*mu*U^1]

for ``i = 1..s``, where ``mu`` is the eigenvalue map of the stiff operator
and each coefficient ``a_{i+1,j}`` is evaluated once per eigenvalue and
cached for the whole run as one ``(s, s, m)`` array.  The state is carried
in sine coefficients from step to step: each stage transforms only its
nonlinearity forward and its result back, so a step costs ``2s`` sine
transforms.  An unmonitored run evaluates one energy per step, that of the
new state.

When monitoring is on, each step also computes the stage energies and
records the slack ("margin") of the stage energy inequality

    E[U^{j+1}] - E[U^1]  <=  -(1/tau) * sum_{k<=j} <dU^{k+1},
                                sum_{l<=k} d_{kl}(-tau*mu) dU^{l+1}>

in the problem's metric (H^{-1} for Cahn-Hilliard, L^2 otherwise), where
``dU^{i+1} = U^{i+1} - U^i`` and ``d_{kl}`` is the differentiation matrix
evaluated per eigenvalue.  Nonnegative margins certify that the inequality
held for that step.
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
    "stage_energy_margin",
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

    index: int
    stages: list  # U^{n,1} .. U^{n,s+1}
    deltas: list  # U^{n,i+1} - U^{n,i} for i = 1..s
    energies: np.ndarray  # E[U^{n,j}] for j = 1..s+1
    margins: Optional[np.ndarray] = None  # slack of the stage law, j = 1..s


class _StepWorkspace:
    """Spectral coefficient cache for a fixed (problem, tableau, tau)."""

    def __init__(self, problem: Problem, tableau: Tableau, tau: float, monitor: bool):
        if tau <= 0:
            raise ValueError(f"step size must be positive, got {tau}")
        self.problem = problem
        self.tau = float(tau)
        op = problem.op
        self.tau_mu = self.tau * problem.spectral_shift(op.eigenvalues)
        z = -self.tau_mu
        s = tableau.stages
        # a_{i+1,j}(z) per eigenvalue, zero above the diagonal
        self.coeff = np.zeros((s, s, op.m))
        for i, row in enumerate(tableau.rows):
            for j, entry in enumerate(row):
                self.coeff[i, j] = evaluate(entry, z)
        self.dmats = None
        if monitor:
            # (m, s, s) -> (s, s, m): d_{kl} per eigenvalue
            self.dmats = np.moveaxis(differentiation_matrix(tableau, z), 0, -1)
        self.metric_weight = op.h / op.eigenvalues if problem.metric == "hminus1" else op.h

    def stages(self, u1: np.ndarray, u1_hat: np.ndarray, index: int):
        """Stages ``U^1..U^{s+1}`` and their sine coefficients, from ``U^1``
        and its coefficients; the caller guards against overflow warnings."""
        problem, op, tau = self.problem, self.problem.op, self.tau
        tau_mu_u1 = self.tau_mu * u1_hat
        w_hats = np.empty_like(self.coeff[0])
        stages, hats = [u1], [u1_hat]
        for i, row in enumerate(self.coeff):
            w_hats[i] = tau * problem.g_stabilized(stages[i]) - tau_mu_u1
            acc = u1_hat + (row[:i + 1] * w_hats[:i + 1]).sum(axis=0)
            u_next = op.inverse(acc)
            if not np.all(np.isfinite(u_next)):
                raise DivergenceError(index)
            stages.append(u_next)
            hats.append(acc)
        return stages, hats

    def record(self, stages: list, hats: list, e1: float, index: int) -> StepRecord:
        """Full record of a step: stage energies (``E[U^1] = e1`` given),
        deltas and, when monitoring, margins."""
        energies = np.array([e1] + [self.problem.energy(u) for u in stages[1:]])
        deltas = [b - a for a, b in zip(stages, stages[1:])]
        margins = None
        if self.dmats is not None:
            delta_hats = [b - a for a, b in zip(hats, hats[1:])]
            margins = _margins_from_spectral(self.dmats, delta_hats, energies,
                                             self.metric_weight, self.tau)
        return StepRecord(index, stages, deltas, energies, margins)


def _margins_from_spectral(dmats, delta_hats, energies, weight, tau):
    s = len(delta_hats)
    margins = np.empty(s)
    quad = 0.0
    for k in range(s):
        v = np.zeros_like(delta_hats[0])
        for l in range(k + 1):
            v += dmats[k, l] * delta_hats[l]
        quad += float(np.sum(weight * delta_hats[k] * v))
        margins[k] = -quad / tau - (energies[k + 1] - energies[0])
    return margins


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
        return ws.record(stages, hats, problem.energy(u), 0)


def stage_energy_margin(problem: Problem, tableau: Tableau, record: StepRecord,
                        tau: float) -> np.ndarray:
    """Margins of the stage energy inequality for a completed step.

    Recomputes the quadratic form from the record's stage increments,
    independently of the cached path inside :func:`integrate`.
    """
    op = problem.op
    dmats = np.moveaxis(differentiation_matrix(tableau, -tau * problem.spectral_shift(op.eigenvalues)), 0, -1)
    delta_hats = [op.forward(d) for d in record.deltas]
    weight = op.h / op.eigenvalues if problem.metric == "hminus1" else op.h
    return _margins_from_spectral(dmats, delta_hats, record.energies, weight, tau)


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

    ``snapshot_steps``/``snapshots``: optional set and dict; after step ``n``
    in the set, a copy of the state is stored under key ``n`` (used by the
    convergence driver to sample a reference run).  On divergence the report
    is truncated at the last finite step and flagged.
    """
    n_steps = _step_count(t_final, tau)
    if snapshot_steps is not None and snapshots is None:
        raise ValueError("snapshot_steps given without a snapshots dict")
    u = np.asarray(u0, dtype=float).copy()
    u_hat = problem.op.forward(u)
    ws = _StepWorkspace(problem, tableau, tau, monitor)
    energies = [problem.energy(u)]
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
            if monitor:
                rec = ws.record(stages, hats, energies[-1], n)
                energies.append(rec.energies[-1])
                margins.append(rec.margins)
            else:
                energies.append(problem.energy(stages[-1]))
            u, u_hat = stages[-1], hats[-1]
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
