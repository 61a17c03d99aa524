"""Span tracing of the eerk modules, installed from outside the package.

Each wrapper records a span ``(name, start, end, parent)`` in flat arrays
kept in memory, plus counts taken at the same boundary.  Wrappers replace
the binding the *caller* looks up (``eerk.integrator.evaluate``, not only
``eerk.phi.evaluate``), so calls between modules are caught.  A layer's
self time is its spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("phi", "tableaux", "dissipation", "spatial", "integrator", "bench", "cli")

# (module, attribute path, span name, counter): every eerk function a
# workload reaches, wrapped at the binding its callers look up
WRAPS = [
    ("eerk.integrator", "evaluate", "phi.evaluate", "points"),
    ("eerk.dissipation", "evaluate", "phi.evaluate", "points"),
    ("eerk.tableaux", "evaluate", "phi.evaluate", "points"),
    ("eerk.dissipation", "coefficient_matrix", "tableaux.coefficient_matrix", None),
    ("eerk.dissipation", "butcher_diff", "tableaux.butcher_diff", None),
    ("eerk.tableaux", "get_method", "tableaux.get_method", None),
    ("eerk.bench", "parse_method", "tableaux.parse_method", None),
    ("eerk.dissipation", "differentiation_matrix", "dissipation.differentiation_matrix", "dmat"),
    ("eerk.integrator", "differentiation_matrix", "dissipation.differentiation_matrix", "dmat"),
    ("eerk.dissipation", "leading_principal_minors", "dissipation.leading_principal_minors", None),
    ("eerk.dissipation", "average_dissipation_rate", "dissipation.average_dissipation_rate", None),
    ("eerk.bench", "classify_method", "dissipation.classify_method", "verdict"),
    ("eerk.bench", "scan_method", "dissipation.scan_method", None),
    # inverse = forward captured the function when the class was created,
    # so each binding is wrapped on its own
    ("eerk.spatial", "SpectralOperator.forward", "spatial.transform", "transform"),
    ("eerk.spatial", "SpectralOperator.inverse", "spatial.transform", "transform"),
    ("eerk.spatial", "Problem.g_stabilized", "spatial.g_stabilized", None),
    ("eerk.spatial", "Problem.energy", "spatial.energy", None),
    ("eerk.bench", "build_laplacian_1d", "spatial.build_laplacian_1d", None),
    ("eerk.bench", "integrate", "integrator.integrate", "integrate"),
    ("eerk.cli", "run_convergence", "bench.run_convergence", None),
    ("eerk.cli", "run_energy", "bench.run_energy", None),
    ("eerk.cli", "run_analysis", "bench.run_analysis", None),
    ("eerk.bench", "write_csv", "bench.write_csv", "csv"),
    ("eerk.cli", "load_config", "cli.load_config", None),
    ("eerk.cli", "main", "cli.main", None),
]


class Tracer:
    """Spans in flat arrays plus named counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self.counts = defaultdict(float)
        self.meta: dict = {}
        self.missing: list = []

    def wrap(self, fn, name: str, counter=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding in :data:`WRAPS`; absent ones are listed in
        ``missing`` and their metrics read zero."""
        for module, path, name, counter in WRAPS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self.wrap(fn, name, COUNTERS.get(counter)))

    def dump(self, path) -> None:
        """Write the spans out: name table, then one row per span."""
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int32))

    def summary(self, passes: int) -> dict:
        """Per-layer metrics per pass."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = dict(zip(self.names, np.bincount(nid, minlength=k)))
        self_s = dict(zip(self.names, np.bincount(nid, weights=self_time, minlength=k)))
        total_s = dict(zip(self.names, np.bincount(nid, weights=dur, minlength=k)))
        c = self.counts
        m = self.meta.get("m", 0)
        backend = self.meta.get("backend")
        flop, nbytes = transform_cost(backend, m)
        n_transform = calls.get("spatial.transform", 0)
        out = {}
        for layer in LAYERS:
            names = [n for n in self.names if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        out.update({
            "spatial.transform_calls": n_transform,
            "spatial.transform_self_s": self_s.get("spatial.transform", 0.0),
            "spatial.transform_mflop_computed": n_transform * flop / 1e6,
            "spatial.transform_mb_computed": n_transform * nbytes / 1e6,
            "spatial.nonlin_calls": calls.get("spatial.g_stabilized", 0),
            "spatial.nonlin_self_s": self_s.get("spatial.g_stabilized", 0.0),
            "spatial.energy_calls": calls.get("spatial.energy", 0),
            "spatial.energy_self_s": self_s.get("spatial.energy", 0.0),
            "integrator.runs": calls.get("integrator.integrate", 0),
            "integrator.steps": c["integrator.steps"],
            "integrator.stage_evals": c["integrator.stage_evals"],
            "integrator.diverged": c["integrator.diverged"],
            "phi.evaluate_calls": calls.get("phi.evaluate", 0),
            "phi.points": c["phi.points"],
            "phi.scalar_calls": c["phi.scalar_calls"],
            "tableaux.coefficient_matrix_calls": calls.get("tableaux.coefficient_matrix", 0),
            "tableaux.methods_built": calls.get("tableaux.get_method", 0),
            "dissipation.dmat_calls": calls.get("dissipation.differentiation_matrix", 0),
            "dissipation.dmat_points": c["dissipation.dmat_points"],
            "dissipation.bisect_evals": c["dissipation.bisect_evals"],
            "dissipation.bisect_evals_per_npd": (c["dissipation.bisect_evals"]
                                                 / max(1.0, c["dissipation.npd_verdicts"])),
            "dissipation.minors_self_s": self_s.get("dissipation.leading_principal_minors", 0.0),
            "bench.snapshot_states": c["bench.snapshot_states"],
            "bench.snapshot_mb_computed": c["bench.snapshot_states"] * 8 * m / 1e6,
            "bench.csv_files": calls.get("bench.write_csv", 0),
            "bench.csv_mb": c["bench.csv_bytes"] / 1e6,
            "bench.csv_s": total_s.get("bench.write_csv", 0.0),
            "cli.config_s": total_s.get("cli.load_config", 0.0),
            "trace.spans": len(dur),
        })
        return {name: float(value) / passes for name, value in out.items()}


def transform_cost(backend, m: int):
    """Computed (flop, bytes) of one sine transform of length ``m``.

    dense: a matrix-vector product, 2 m^2 flop reading the 8 m^2 B matrix.
    Any other backend is taken as a DST-I through a real FFT of length
    N = 2 (m + 1): 2.5 N log2 N flop, reading and writing the 8 m B vectors.
    """
    if not m:
        return 0.0, 0.0
    if backend == "dense":
        return 2.0 * m * m, 8.0 * m * m
    n = 2 * (m + 1)
    return 2.5 * n * np.log2(n), 16.0 * m


def _count_points(tr, args, kwargs, result):
    n = np.size(args[1] if len(args) > 1 else kwargs["z"])
    tr.counts["phi.points"] += n
    tr.counts["phi.scalar_calls"] += n == 1


def _count_dmat(tr, args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    tr.counts["dissipation.dmat_points"] += np.size(z)
    tr.counts["dissipation.bisect_evals"] += bool(np.isscalar(z))


def _count_verdict(tr, args, kwargs, result):
    tr.counts["dissipation.npd_verdicts"] += not result.is_psd


def _count_transform(tr, args, kwargs, result):
    if "m" not in tr.meta:
        op = args[0]
        tr.meta["m"] = op.m
        tr.meta["backend"] = getattr(op, "transform", "fft")


def _count_integrate(tr, args, kwargs, result):
    tableau = args[1] if len(args) > 1 else kwargs["tableau"]
    tr.counts["integrator.steps"] += result.n_steps
    tr.counts["integrator.stage_evals"] += result.n_steps * tableau.stages
    tr.counts["integrator.diverged"] += bool(result.diverged)
    snaps = kwargs.get("snapshot_steps", args[6] if len(args) > 6 else None)
    if snaps is not None:
        tr.counts["bench.snapshot_states"] += len(snaps)


def _count_csv(tr, args, kwargs, result):
    tr.counts["bench.csv_bytes"] += result.stat().st_size


COUNTERS = {"points": _count_points, "dmat": _count_dmat, "verdict": _count_verdict,
            "transform": _count_transform, "integrate": _count_integrate, "csv": _count_csv}
