"""Generic EERK stage loop with optional stage-energy-law monitoring.

One step of an s-stage method applied to the stabilized problem
``u' = -L u + g(u)`` reads, entirely in the sine eigenbasis,

    U^{i+1} = U^1 + sum_{j<=i} a_{i+1,j}(-tau*mu) [tau*g(U^j) - tau*mu*U^1]
            = b_i U^1 + sum_{j<=i} tau a_{i+1,j} g(U^j)

for ``i = 1..s``, with ``b_i = 1 - tau*mu sum_j a_{i+1,j}`` and ``mu`` the
eigenvalue map of the stiff operator.  ``b_i`` and ``tau a_{i+1,j}`` are
evaluated once per eigenvalue and cached for the run, so each stage is one
contraction of its row with the terms ``[U^1, g(U^1) .. g(U^s)]`` in sine
coefficients.  The state is carried in sine coefficients from step to step:
each stage transforms only its physical-space nonlinearity forward and its
result back, so a step costs ``2s`` sine transforms.  Each is ``op.forward``
done bit for bit by ``op.transform_odd`` in one odd extension per member.

``integrate`` runs one tableau or an :class:`Ensemble` of B tableaux that
share the problem, the initial state, tau and the stage count.  Every
buffer carries a leading member axis: the coefficient cache is
``(B, s, s+1, m)``, and each stage makes one nonlinearity call, one
transform call each way and one contraction for all members.  A single
tableau is the ensemble of one.  Every row of every buffer is computed
exactly as in a run of its member alone, so each member's report is bit for
bit that of its own run.  Preparing a run admits it (the ensemble, the step
rule ``_step_count``); A(z), once per member, is evaluated when the run
starts, or at preparation when monitored, with D(z), which refuses a
vanishing ``a_{k+1,k}``.  Stage buffers live only while ``integrate`` runs.

The loop runs in blocks of steps: 16 member-steps (fewer on meshes above
``4096/s`` points, so that a block holds at most 2**16 stage values) are
shared among the B members, at least one step each.  The steps of a
block write their stages into one ``(B, ks+1, m)`` buffer and its
sine-coefficient twin, each step starting from the row where the previous
one ended.  Only then is the block checked and recorded into series sized
for the horizon, one row per member and one column per step: with one call
for all members, the energies of the step ends, or of every stage when
monitoring, and the margins, whose quadratic forms are contracted member by
member; then, member by member, the sup-norms of all stage rows, whose
first non-finite value names the member's diverged step (its report stops
before it, and nothing later of it is recorded or handed over).  A run
keeps its shape: a diverged member's rows are still computed until the run
ends, which it does early once every member has diverged.  A caller that
needs more than the reports (the convergence driver samples the step ends)
passes ``on_block``, one hook per member, each of which then receives the
finite steps of its member's block as one ``(k, s, m)`` stage-buffer view.

When monitoring is on, each step also records the slack ("margin") of the
stage energy inequality

    E[U^{j+1}] - E[U^1]  <=  -(1/tau) * sum_{k<=j} <dU^{k+1},
                                sum_{l<=k} d_{kl}(-tau*mu) dU^{l+1}>

in the problem's ``weight`` (H^{-1} for Cahn-Hilliard, L^2 otherwise), where
``dU^{i+1} = U^{i+1} - U^i`` and ``d_{kl}`` is the differentiation matrix
per eigenvalue, built from the same evaluated ``a_{i+1,j}`` as the
coefficient cache.  Every term is diagonal in the sine basis, so the
quadratic forms of a member's block are one contraction of its
weighted ``(s, s, m)`` cache of ``d_{kl}`` with the coefficient
increments, and a cumulative sum.  Nonnegative margins certify that the
inequality held for that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from eerk.dissipation import _from_coefficients
from eerk.spatial import Problem
from eerk.tableaux import Tableau, coefficient_matrix

# member-steps per block, and stage values per block buffer (512 kB), so
# that a large mesh or ensemble does not pay for the batching in memory
_BLOCK_STEPS = 16
_BLOCK_VALUES = 2**16
# the largest shipped run, the criterion-6 reference, takes 25 600 steps
_MAX_STEPS = 2**24
# a margin is a difference of terms of size |E|; this many units of
# roundoff of those terms is its floor
_FLOOR_ULPS = 4

__all__ = ["Ensemble", "EnsembleReport", "RunReport", "integrate"]


class Ensemble(tuple):
    """Tableaux that ``integrate`` advances together: at least one, all
    with the same stage count."""

    def __new__(cls, tableaux):
        ensemble = super().__new__(cls, tableaux)
        if not ensemble:
            raise ValueError("an ensemble needs at least one tableau")
        if len({t.stages for t in ensemble}) > 1:
            raise ValueError("the tableaux of an ensemble must share a stage count, got "
                             + ", ".join(f"{t.label} ({t.stages})" for t in ensemble))
        return ensemble

    @property
    def stages(self) -> int:
        return self[0].stages


class _StepWorkspace:
    """A prepared run: an ensemble of ``tableaux`` admitted by the step rule,
    and the folded spectral coefficient caches of its ``n_steps`` steps."""

    def __init__(self, problem: Problem, tableaux, tau: float, t_final: float, monitor: bool):
        self.ensemble = Ensemble(tableaux)
        self.n_steps = _step_count(problem, t_final, tau)
        self.problem, self.tau, self.t_final, self.monitor = problem, float(tau), t_final, monitor
        self.stages = self.ensemble.stages
        if monitor:  # D's diagonal refusal comes with the admission, before any output
            self.caches

    @cached_property
    def caches(self) -> tuple:
        """``coeff`` and, when monitored, ``dmats`` (else None), built on first use."""
        problem, s, members = self.problem, self.stages, len(self.ensemble)
        tau_mu, m = self.tau * problem.mu, problem.op.m
        # stage i+1 contracts row i with the terms [U_hat^1, g_1 .. g_s],
        # g_j = factor * DST(N(U^j)) with N the physical-space nonlinearity:
        # column 0 holds b_i, column j the folded tau a_{i+1,j} * factor
        coeff = np.empty((members, s, s + 1, m))
        dmats = np.empty((members, s, s, m)) if self.monitor else None
        for b, tableau in enumerate(self.ensemble):
            # a_{i+1,j}(z) per eigenvalue, zero above the diagonal: the run's one evaluation
            a_z = coefficient_matrix(tableau, -tau_mu)
            a = np.ascontiguousarray(np.moveaxis(a_z, 0, -1))
            coeff[b, :, 0] = 1.0 - tau_mu * a.sum(axis=1)
            coeff[b, :, 1:] = self.tau * a * problem.factor
            if self.monitor:
                # d_{kl}(z), zero above the diagonal, times the inner-product weight
                d = _from_coefficients(a_z, -tau_mu, "standard", tableau.label)
                dmats[b] = np.moveaxis(d, 0, -1) * problem.weight
        return coeff, dmats


class _StageBuffers:
    """The stage buffers of a run of ``ws``, ``rows`` stage rows per member."""

    def __init__(self, ws: _StepWorkspace, rows: int):
        coeff, self.dmats = ws.caches
        self.ws, op, members, s = ws, ws.problem.op, len(ws.ensemble), ws.stages
        # the stage rows and their sine coefficients, one odd extension per member,
        # and the term spectra: row j >= 1 holds the transform of N(U^j) and the
        # coefficient view of row 0 U_hat^1, so the terms are one view.  Stage i+1
        # transforms N(U^{i+1}) from the extension's body, contracts into the body,
        # copies it to its coefficient row and transforms it into spectrum row
        # (i+2) % (s+1), which the next stage's forward transform (or the next step's
        # U_hat^1) overwrites.  This rests on one ordering: the contraction of stage
        # i+1 reads only coefficient row i and term rows 0..i+1, and np.copyto reads
        # the inverse transform's row before anything writes to it again
        self.u, self.u_hat = np.empty((2, members, rows, op.m))
        self.odd, self.body = op.odd_buffer((members,))
        spectra, self.terms = op.spectrum_buffer((members, s + 1))
        self.rows = [(coeff[:, i, :i + 2], self.terms[:, :i + 2], spectra[:, i + 1],
                      spectra[:, (i + 2) % (s + 1)], self.terms[:, (i + 2) % (s + 1)])
                     for i in range(s)]

    def advance(self, r: int) -> None:
        """Fill rows ``r+1..r+s`` of the stage buffers ``u`` and ``u_hat``
        with the stages of the step from row ``r``, for every member.  No
        row is checked for divergence; the caller does that and guards
        against overflow warnings."""
        u, u_hat, odd, body = self.u, self.u_hat, self.odd, self.body
        nonlinearity, transform = self.ws.problem.nonlinearity, self.ws.problem.op.transform_odd
        self.terms[:, 0] = u_hat[:, r]
        for i, (row, terms, spectrum, back, back_coeffs) in enumerate(self.rows, start=r):
            nonlinearity(u[:, i], out=body)
            transform(odd, spectrum)
            np.einsum("bjm,bjm->bm", row, terms, out=body)
            np.copyto(u_hat[:, i + 1], body)
            transform(odd, back)
            np.copyto(u[:, i + 1], back_coeffs)

    def margins(self, energies: np.ndarray, start: np.ndarray) -> tuple:
        """Margins, shape ``(B, k, s)``, of the first ``k`` steps of a block
        of each member, from their stage energies ``E[U^{j+1}]``,
        shape ``(B, k, s)``, and their start energies ``E[U^1]``, shape
        ``(B, k)``; and the rounding floor of each margin, a few ulps of
        the terms it subtracts."""
        members, k, s = energies.shape
        delta_hats = np.diff(self.u_hat[:, :k * s + 1], axis=1).reshape(members, k, s, -1)
        quad = np.einsum("bklm,bnkm,bnlm->bnk", self.dmats, delta_hats, delta_hats)
        drop = np.cumsum(quad, axis=2) / self.ws.tau
        start = start[..., None]
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
    diverged_step: Optional[int]

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None

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


class EnsembleReport(tuple):
    """The reports of an ensemble's members, in its order."""

    @property
    def n_steps(self) -> int:
        """Member steps taken, summed over the members."""
        return sum(report.n_steps for report in self)

    @property
    def diverged(self) -> bool:
        return any(report.diverged for report in self)


def _step_count(problem: Problem, t_final: float, tau: float) -> int:
    """The one rule that admits a step size: the steps of ``tau`` to
    ``t_final``, 0 or a whole number within 8 ulps of ``t_final / tau`` and
    at most ``_MAX_STEPS``.  A ValueError refuses, in this order, a ``tau``
    that is not positive, a horizon that is no such number of steps, and a
    ``tau * mu``, where a step evaluates phi, that overflows on the
    spectrum of ``problem`` (at a zero horizon too)."""
    if not tau > 0:
        raise ValueError(f"step size must be positive, got {tau}")
    ratio = float(t_final) / float(tau)  # overflows to inf without a warning
    if ratio > _MAX_STEPS:
        raise ValueError(f"final time {t_final} takes more than {_MAX_STEPS} steps of tau {tau}")
    n = round(ratio) if np.isfinite(ratio) else 0
    if t_final != 0 and (n < 1 or abs(ratio - n) > 8 * np.spacing(max(1.0, ratio))):
        raise ValueError(f"final time {t_final} is not an integer multiple of tau {tau}")
    mu = float(np.max(problem.mu))
    if not np.isfinite(float(tau) * mu):  # a float product overflows without a warning
        raise ValueError(f"step size tau {tau} times the largest stiff eigenvalue "
                         f"{mu:.6g} overflows float64")
    return n


def integrate(problem: Problem, tableau, u0, tau: float, t_final: float,
              monitor: bool = False, *, on_block=None):
    """Run ``t_final / tau`` steps from ``u0``; ``t_final = 0`` gives the
    report of the initial state alone.  On divergence the report is
    truncated at the last finite step and flagged.  Before any evaluation,
    the one step rule ``_step_count`` admits ``tau``: a ``ValueError``
    rejects a ``tau`` that is not positive, a ``t_final`` that is not
    ``n * tau`` (within 8 ulps) for a whole ``0 <= n <= 2**24``, and a
    ``tau`` whose ``tau * mu`` overflows on the problem's spectrum (at a
    zero horizon too).

    ``tableau`` is one :class:`Tableau`, which gives one :class:`RunReport`,
    or a sequence of them sharing a stage count (see :class:`Ensemble`),
    which gives an :class:`EnsembleReport` whose reports equal those of the
    members' own runs.  A diverged member keeps its rows in the buffers
    to the end of the run, which stops early only once every member has
    diverged.  A run prepared before any output (a ``_StepWorkspace``) may
    stand in its place, given the arguments it was prepared with.

    ``on_block(n0, stages)``, if given, is called after each checked block
    of steps ``n0+1 .. n0+k`` with the ``(k, s, m)`` view ``stages`` of
    their stages ``U^2 .. U^{s+1}``, so ``stages[j, -1]`` ends step
    ``n0+j+1``.  The view is valid only during the call.  Diverged steps
    are never handed over.  An ensemble takes one such hook (or None) per
    member.
    """
    single = isinstance(tableau, Tableau)
    ws = tableau if isinstance(tableau, _StepWorkspace) else _StepWorkspace(
        problem, [tableau] if single else tableau, tau, t_final, monitor)
    members, n_steps, s, m = len(ws.ensemble), ws.n_steps, ws.stages, problem.op.m
    hooks = [on_block] * members if single or on_block is None else list(on_block)
    if len(hooks) != members:
        raise ValueError(f"{members} members need as many on_block hooks, got {len(hooks)}")
    block = max(1, min(_BLOCK_STEPS, _BLOCK_VALUES // (s * m)) // members)
    run = _StageBuffers(ws, block * s + 1)  # this call's own, released when it returns
    u, u_hat = run.u, run.u_hat
    u[:, 0] = u0
    u_hat[:, 0] = problem.op.forward(u[0, 0])
    # column n of a series holds the end of step n, for every member
    energies = np.empty((members, n_steps + 1))
    sup_norms = np.empty((members, n_steps + 1))
    energies[:, 0] = problem.energy(u[0, :1], u_hat[0, :1])
    sup_norms[:, 0] = np.max(np.abs(u[0, :1]), axis=1)
    margins = np.empty((members, n_steps, s)) if monitor else None
    floors = np.empty((members, n_steps, s)) if monitor else None
    diverged_steps = [None] * members
    final_states = [None] * members
    # overflow in a blowing-up nonlinearity is handled via the divergence
    # check, not floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n0 in range(0, n_steps, block):
            k = min(block, n_steps - n0)
            for r in range(0, k * s, s):
                run.advance(r)
            stage_rows = slice(1, k * s + 1)
            rows = stage_rows if monitor else slice(s, k * s + 1, s)
            recorded = problem.energy(u[:, rows], u_hat[:, rows]).reshape(members, k, -1)
            energies[:, n0 + 1:n0 + k + 1] = recorded[:, :, -1]
            if monitor:
                margins[:, n0:n0 + k], floors[:, n0:n0 + k] = run.margins(
                    recorded, energies[:, n0:n0 + k])
            for b, hook in enumerate(hooks):
                if diverged_steps[b] is not None:
                    continue
                # the sup-norm of a row is finite only if the whole row is
                sup = np.max(np.abs(u[b, stage_rows]), axis=1)
                sup_norms[b, n0 + 1:n0 + k + 1] = sup[s - 1::s]
                bad = np.flatnonzero(~np.isfinite(sup))
                kb = k
                if bad.size:
                    kb = int(bad[0]) // s
                    diverged_steps[b] = n0 + kb + 1
                    final_states[b] = u[b, kb * s].copy()
                if kb and hook is not None:
                    hook(n0, u[b, 1:kb * s + 1].reshape(kb, s, m))
            if None not in diverged_steps:
                break
            u[:, 0], u_hat[:, 0] = u[:, k * s], u_hat[:, k * s]
    reports = []
    for b, tableau in enumerate(ws.ensemble):
        step = diverged_steps[b]
        n = n_steps if step is None else step - 1
        reports.append(RunReport(
            method=tableau.label,
            tau=tau,
            times=tau * np.arange(n + 1),
            energies=energies[b, :n + 1],
            sup_norms=sup_norms[b, :n + 1],
            final_state=u[b, 0].copy() if step is None else final_states[b],
            margins=margins[b, :n] if monitor and n else None,
            margin_floors=floors[b, :n] if monitor and n else None,
            diverged_step=step,
        ))
    return reports[0] if single else EnsembleReport(reports)
