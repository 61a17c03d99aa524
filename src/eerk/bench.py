"""Benchmark drivers: convergence tables, energy runs, method analysis.

All drivers consume an :class:`ExperimentConfig` (key=value config file plus
overrides) and emit CSV with 17 significant digits, a text cell quoted where
it holds a comma, a quote or a line break (RFC 4180), so identical
configurations produce bit-identical output files.

Default problem setup is the 1-D Cahn-Hilliard benchmark: interval
``(0, 2*pi)``, mesh spacing ``pi/320`` (639 interior points), interface
width 0.2, stabilization 2.  Initial profiles:

* ``sine``:  ``0.5 * sin(x)``
* ``bumps``: ``tanh(2 sin x)/3 - exp(-23.5 (x - pi/2)^2)
  + exp(-27 (x - 4.2)^2) + exp(-38 (x - 5.4)^2)``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from eerk.dissipation import (
    average_dissipation_rate,
    classify_method,  # not called here; perfbench's CallTimer wraps bench.classify_method
    default_z_grid,
    scan_method,
)
from eerk.integrator import Ensemble, _check_stiffness, _step_count, integrate
from eerk.spatial import CahnHilliard, Problem, SpectralOperator
from eerk.tableaux import parse_method

__all__ = [
    "ConfigError",
    "BenchDivergence",
    "ExperimentConfig",
    "load_config",
    "initial_profile",
    "parse_z_grid",
    "ConvergenceRow",
    "run_convergence",
    "run_energy",
    "run_analysis",
    "run_rate",
    "write_csv",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class BenchDivergence(RuntimeError):
    """A run required by the experiment diverged."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):  # RFC 4180: quoted if it holds a comma, a quote or a line break
        return '"' + value.replace('"', '""') + '"' if set(value) & set(',"\r\n') else value
    return f"{value:.17g}"


def write_csv(path, header, block) -> Path:
    """Write a 2-D array as CSV into an existing directory: a float block in
    one 17-significant-digit format, an object block cell by cell (``None``
    empty, text quoted where it holds a comma, a quote or a line break); a
    failed write is a ``ConfigError``."""
    path = Path(path)
    if block.dtype == object:
        rows = [",".join(map(_fmt, row)) for row in block.tolist()]
    else:
        numeric = ",".join(["%.17g"] * len(header))
        rows = [numeric % tuple(row) for row in block.tolist()]
    try:
        path.write_text("\n".join([",".join(header), *rows]) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _output(cfg, tableaux):
    """The writer of a run's CSV files: ``write(name, header, *columns)``
    stacks vectors and 2-D blocks into ``<out>/<name>.csv``, the name made
    file-safe, or does nothing without an output directory.  Called once a
    run is admitted; before it makes the directory, it refuses a label of
    ``tableaux`` too long to name a file (over 239 characters)."""
    if cfg.out is None:
        return lambda name, header, *columns: None
    for t in tableaux:
        if len(t.label) > _MAX_LABEL:
            raise ConfigError(f"method label {t.label[:24]}... has {len(t.label)} characters; "
                              f"with --out, a label names files and may have at most {_MAX_LABEL}")
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out}: {exc}") from exc

    def write(name, header, *columns):
        path = cfg.out / (name.translate(str.maketrans(":=,/", "----")) + ".csv")
        write_csv(path, header, np.column_stack(columns))

    return write


def initial_profile(name: str, x: np.ndarray) -> np.ndarray:
    if name == "sine":
        return 0.5 * np.sin(x)
    if name == "bumps":
        return (np.tanh(2.0 * np.sin(x)) / 3.0
                - np.exp(-23.5 * (x - np.pi / 2) ** 2)
                + np.exp(-27.0 * (x - 4.2) ** 2)
                + np.exp(-38.0 * (x - 5.4) ** 2))
    raise ConfigError(f"unknown initial profile {name!r} (known: sine, bumps)")


# largest mesh and largest z grid: 8 MB per vector; largest reference
# store of a convergence table: 1 GiB
_MAX_POINTS = 2**20
_MAX_STORE = 2**27
_MAX_LABEL = 255 - len("_convergence.csv")  # a file name's 255 bytes less the longest suffix
_LENGTH = 2.0 * np.pi  # the interval is (0, 2*pi)


def parse_z_grid(spec: str) -> np.ndarray:
    """Grid specs: ``default``, ``lin:a:b:n``, ``log:min:max:n`` (log in
    |z|), and ``+``-joined unions thereof."""
    if spec == "default":
        return default_z_grid()
    chunks, total = [], 0
    for chunk in spec.split("+"):
        try:
            kind, a, b, n = chunk.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError as exc:
            raise ConfigError(f"malformed grid spec {chunk!r}") from exc
        if not (math.isfinite(a) and math.isfinite(b) and 1 <= n <= _MAX_POINTS):
            raise ConfigError(f"grid spec {chunk!r} needs finite bounds and 1 to {_MAX_POINTS} points")
        if kind not in ("lin", "log"):
            raise ConfigError(f"unknown grid kind {kind!r}")
        if kind == "log" and (a <= 0 or b <= 0):
            raise ConfigError("log grid bounds are magnitudes |z| > 0")
        total += n
        if total > _MAX_POINTS:
            raise ConfigError(f"grid spec {spec!r} has more than {_MAX_POINTS} points in all")
        chunks.append((kind, a, b, n))
    # every chunk is admitted before the first is built
    parts = [np.linspace(a, b, n) if kind == "lin" else -np.logspace(math.log10(a), math.log10(b), n)
             for kind, a, b, n in chunks]
    grid = np.unique(np.concatenate(parts))
    if np.any(grid > 0):
        raise ConfigError("z grid must satisfy z <= 0")
    return grid


@dataclass
class ExperimentConfig:
    """Everything a driver needs; see :func:`load_config` for the file form."""

    methods: list = field(default_factory=list)
    eps: float = 0.2
    kappa: float = 2.0
    m: int = 639
    ic: str = "sine"
    taus: list = field(default_factory=lambda: [0.01, 0.005, 0.0025, 0.00125])
    t_final: float = 8.0
    grid: str = "default"
    out: Optional[Path] = None
    monitor: bool = False
    ref_method: Optional[str] = None
    ref_tau: Optional[float] = None
    implicit: bool = False

    def tableaux(self) -> list:
        if not self.methods:
            raise ConfigError("no method specified")
        tableaux = [_admit(parse_method, spec) for spec in self.methods]
        # a method's printed line and CSV files go under its label
        specs = {}
        for spec, t in zip(self.methods, tableaux):
            if t.label in specs:
                raise ConfigError(f"method {t.label} is given twice "
                                  f"(as {specs[t.label]!r} and {spec!r})")
            specs[t.label] = spec
        return tableaux

    def problem(self) -> Problem:
        # whether eps and kappa are admissible depends on the spectrum
        try:
            return Problem(
                SpectralOperator(_LENGTH, self.m),
                CahnHilliard(eps=self.eps, kappa=self.kappa),
            )
        except ValueError as exc:
            raise ConfigError(f"{exc} (eps={self.eps}, kappa={self.kappa})") from exc

    def initial_state(self, problem: Problem) -> np.ndarray:
        return initial_profile(self.ic, problem.op.x)

    def z_grid(self) -> np.ndarray:
        return parse_z_grid(self.grid)

    def resolve_reference(self, tableaux) -> tuple:
        """Reference method/step for convergence runs of ``tableaux``;
        defaults to a PSD-on-grid method at tau_0/32: the third-order
        ``eerk31:c2=4/9`` (its threshold) when any of the tableaux has three
        or more stages, else the second-order ``eerk2w:c2=3/11`` (above its
        threshold, which lies between 2553/10000 and 2554/10000)."""
        spec = self.ref_method
        if spec is None:
            third = any(t.stages >= 3 for t in tableaux)
            spec = "eerk31:c2=4/9" if third else "eerk2w:c2=3/11"
        tau = self.ref_tau if self.ref_tau is not None else self.taus[0] / 32.0
        return _admit(parse_method, spec), float(tau)


def _admit(rule, *args):
    """``rule(*args)``, whose ValueError is a ConfigError: the one converter of
    library refusals, method specs' included; ``_output`` refuses long labels."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ValueError("expected 1/0, true/false, on/off or yes/no")


def _mesh(value: str) -> int:
    """The interior point count of mesh spacing ``h``."""
    spacing = float(value)
    points = _LENGTH / spacing if 0 < spacing < math.inf else math.nan
    # the mesh bounds below, by h: round(x) - 1 is within them iff 2.5 < x < cap + 1.5
    if not 2.5 < points < _MAX_POINTS + 1.5:
        raise ConfigError(f"mesh spacing h={spacing} must be finite, positive and give "
                          f"2 to {_MAX_POINTS} interior points")
    return round(points) - 1


def _method_specs(value: str) -> list:
    """Comma-split method specs, reassembled: a chunk without a name part
    belongs to the previous spec ("eerk32:c2=0.75,c3=0.6")."""
    specs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if specs and "=" in chunk and ":" not in chunk:
            specs[-1] += "," + chunk
        else:
            specs.append(chunk)
    return specs


#: config key -> (ExperimentConfig field, parser of its string value, help
#: of its command-line flag)
_KEYS = {
    "method": ("methods", _method_specs, "method spec; repeatable"),
    "eps": ("eps", float, "interface width"),
    "kappa": ("kappa", float, "stabilization parameter"),
    "m": ("m", int, "interior mesh points"),
    "h": ("m", _mesh, "mesh spacing (alternative to --m)"),
    "ic": ("ic", str, "initial profile: sine | bumps"),
    "tau": ("taus", lambda value: [float(v) for v in value.split(",")],
            "step size(s), comma separated"),
    "T": ("t_final", float, "final time"),
    "grid": ("grid", str, "z grid spec (default: builtin union grid)"),
    "out": ("out", Path, "output directory for CSV files"),
    "monitor": ("monitor", _parse_bool, "record stage energy-law margins"),
    "ref_method": ("ref_method", str, "reference method spec"),
    "ref_tau": ("ref_tau", float, "reference step size"),
    "implicit": ("implicit", _parse_bool,
                 "classify (analyze) or add (rate) the pure-implicit variant"),
}


def load_config(path=None, overrides=None, defaults=None) -> ExperimentConfig:
    """Build a config from a key=value file plus override mapping.

    Recognized keys: ``method`` (comma-separated specs), ``eps``, ``kappa``,
    ``m``, ``h``, ``ic``, ``tau`` (comma-separated), ``T``, ``grid``,
    ``out``, ``monitor``, ``ref_method``, ``ref_tau``, ``implicit``.  Every
    value is a string, as in the UTF-8 file; ``monitor`` and ``implicit``
    take 1/0, true/false, on/off or yes/no.  Precedence: ``defaults`` <
    file entries < ``overrides`` (a ``None`` override is skipped); the
    later of two entries for one field wins, whichever key spells it
    (``m`` or ``h``).  Each value is checked on its own; whether a step
    size divides the horizon is left to the drivers that step with it.
    """
    entries = list((defaults or {}).items())
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, eq, value = stripped.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            entries.append((key.strip(), value.strip()))
    entries += [(key, value) for key, value in (overrides or {}).items() if value is not None]

    raw = {}  # field -> (key, value)
    for key, value in entries:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        raw[_KEYS[key][0]] = (key, value)
    cfg = ExperimentConfig()
    for name, (key, value) in raw.items():
        parse = _KEYS[key][1]
        try:
            setattr(cfg, name, parse(value))
        except ConfigError:
            raise
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse {key}={value!r}: {exc}") from exc
    # at the upper end, a 5-stage monitored run's coefficient caches take 440 MB
    if not 2 <= cfg.m <= _MAX_POINTS:
        raise ConfigError(f"mesh must have 2 to {_MAX_POINTS} interior points, got {cfg.m}")
    if not all(math.isfinite(tau) and tau > 0 for tau in cfg.taus):
        raise ConfigError(f"step sizes must be finite and positive, got {cfg.taus}")
    if cfg.ref_tau is not None and not (math.isfinite(cfg.ref_tau) and cfg.ref_tau > 0):
        raise ConfigError(f"reference step size must be finite and positive, got {cfg.ref_tau}")
    if not (math.isfinite(cfg.t_final) and cfg.t_final >= 0):
        raise ConfigError(f"final time must be finite and nonnegative, got {cfg.t_final}")
    return cfg


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------


def _integrate_by_stages(problem, tableaux, u0, tau, t_final, monitor=False, hooks=None) -> list:
    """The reports of ``tableaux``, in their order, from one ensemble run
    per stage count; ``hooks`` holds each tableau's ``on_block``."""
    hooks = hooks or [None] * len(tableaux)
    groups = {}
    for i, t in enumerate(tableaux):
        groups.setdefault(t.stages, []).append(i)
    reports = [None] * len(tableaux)
    for members in groups.values():
        ensemble = Ensemble(tableaux[i] for i in members)
        run = integrate(problem, ensemble, u0, tau, t_final, monitor,
                        on_block=[hooks[i] for i in members])
        for i, report in zip(members, run):
            reports[i] = report
    return reports


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    error: float
    order: Optional[float]


def run_convergence(cfg: ExperimentConfig):
    """Errors against a fine reference run over a schedule of step sizes.

    The reference run keeps its states at every ``g``-th step, ``g`` the
    gcd of the coarse strides, which covers every coarse time level; the
    error ``max_n max_j |u^n_j - u*(t_n)_j|`` of a coarse run is folded one
    block of steps at a time, and its states are not kept.  The methods run
    together at each coarse tau, one ensemble per stage count.  The order
    between consecutive step sizes is ``log(e_prev/e) / log(tau_prev/tau)``,
    undefined (``None``) in the first row and next to an error of exactly 0.
    Returns the rows and writes ``<label>_convergence.csv`` when an output
    directory is configured.
    """
    tableaux = cfg.tableaux()
    problem = cfg.problem()
    u0 = cfg.initial_state(problem)
    ref_tableau, ref_tau = cfg.resolve_reference(tableaux)
    if not cfg.t_final > 0:
        raise ConfigError(f"a convergence table needs a positive final time, got {cfg.t_final}")
    ref_steps = _admit(_step_count, cfg.t_final, ref_tau)
    for tau in (ref_tau, *cfg.taus):
        _admit(_check_stiffness, problem, tau)

    strides = []
    for i, tau in enumerate(cfg.taus):
        if i and tau == cfg.taus[i - 1]:
            raise ConfigError(f"step size {tau} is repeated; an order needs two different steps")
        stride, rest = divmod(ref_steps, _admit(_step_count, cfg.t_final, tau))
        if rest:
            raise ConfigError(f"tau {tau} is not an integer multiple of ref_tau {ref_tau}")
        strides.append(stride)

    # row i holds the reference state after step (i+1)*g
    g = math.gcd(*strides)
    states = ref_steps // g
    if states * problem.op.m > _MAX_STORE:
        raise ConfigError(f"the reference run would keep {states} states of m={problem.op.m} "
                          f"points, more than {_MAX_STORE} values")
    write = _output(cfg, tableaux)
    reference = np.empty((states, problem.op.m))

    def keep(n0, stages):
        j = g - 1 - n0 % g  # the first step of the block that is a multiple of g
        ends = stages[j::g, -1]
        first = (n0 + j + 1) // g - 1
        reference[first:first + len(ends)] = ends

    ref_report = integrate(problem, ref_tableau, u0, ref_tau, cfg.t_final, on_block=keep)
    if ref_report.diverged:
        raise BenchDivergence(
            f"reference run {ref_tableau.label} at tau={ref_tau} diverged "
            f"at step {ref_report.diverged_step}")

    def folder(errors, i, q):
        def fold(n0, stages):
            k = len(stages)
            want = reference[(n0 + 1) * q - 1:(n0 + k) * q:q]
            errors[i] = max(errors[i], float(np.max(np.abs(stages[:, -1] - want))))
        return fold

    # per tau, the report and the error of each method
    runs = []
    for tau, stride in zip(cfg.taus, strides):
        errors = [0.0] * len(tableaux)
        hooks = [folder(errors, i, stride // g) for i in range(len(tableaux))]
        runs.append((_integrate_by_stages(problem, tableaux, u0, tau, cfg.t_final, hooks=hooks),
                     errors))

    results = {}
    for i, t in enumerate(tableaux):
        rows = []
        for tau, (reports, errors) in zip(cfg.taus, runs):
            report, error = reports[i], errors[i]
            if report.diverged:
                raise BenchDivergence(
                    f"{t.label} at tau={tau} diverged at step {report.diverged_step}")
            order = None
            if rows and rows[-1].error > 0 and error > 0:
                prev = rows[-1]
                order = math.log2(prev.error / error) / math.log2(prev.tau / tau)
            rows.append(ConvergenceRow(tau, error, order))
        results[t.label] = rows
        write(f"{t.label}_convergence", ["tau", "error", "order"],
              np.array([(r.tau, r.error, r.order) for r in rows], dtype=object))
    return results


def run_energy(cfg: ExperimentConfig):
    """Energy series (plus final state and optional stage margins) per
    method at the first configured tau; the methods run together, one
    ensemble per stage count."""
    tableaux = cfg.tableaux()
    problem = cfg.problem()
    u0 = cfg.initial_state(problem)
    tau = cfg.taus[0]
    _admit(_step_count, cfg.t_final, tau)
    _admit(_check_stiffness, problem, tau)
    if cfg.monitor:  # the monitor's D(z) at the run's points refuses a vanishing a_{k+1,k}
        for t in tableaux:
            average_dissipation_rate(t, -tau * problem.mu)
    write = _output(cfg, tableaux)
    reports = {}
    runs = _integrate_by_stages(problem, tableaux, u0, tau, cfg.t_final, cfg.monitor)
    for t, report in zip(tableaux, runs):
        reports[t.label] = report
        write(f"{t.label}_energy", ["t", "energy"], report.times, report.energies)
        write(f"{t.label}_final", ["x", "u"], problem.op.x, report.final_state)
        if report.margins is not None:
            write(f"{t.label}_margins", ["t"] + [f"margin_{j}" for j in range(1, t.stages + 1)],
                  report.times[1:], report.margins)
    return reports


def run_analysis(cfg: ExperimentConfig):
    """Classify each method on the z grid from one scan, which with an
    output directory also gives its minor curves, written after every scan."""
    tableaux = cfg.tableaux()
    grid = cfg.z_grid()
    variant = "implicit" if cfg.implicit else "standard"
    scans = [scan_method(t, z_grid=grid, variant=variant) for t in tableaux]
    write = _output(cfg, tableaux)
    results = {}
    summary_rows = []
    for t, (z, rate, minors, verdict) in zip(tableaux, scans):
        write(f"{t.label}_minors", ["z", "rate"] + [f"minor_{j}" for j in range(1, t.stages + 1)],
              z, rate, minors)
        results[t.label] = verdict
        w = verdict.witness
        summary_rows.append((t.label, verdict.verdict,
                             w.z if w else "", w.minor_index if w else "",
                             w.minor_value if w else ""))
    write("classification", ["method", "verdict", "witness_z", "witness_minor", "witness_value"],
          np.array(summary_rows, dtype=object))
    return results


def run_rate(cfg: ExperimentConfig):
    """Average dissipation rate curves per method, each the CSV's columns:
    the grid ``z``, ``rate`` and, with ``implicit``, ``rate_implicit``,
    written once every curve is computed."""
    tableaux = cfg.tableaux()
    grid = cfg.z_grid()
    curves = {}
    for t in tableaux:
        data = {"z": grid, "rate": average_dissipation_rate(t, grid)}
        if cfg.implicit:
            data["rate_implicit"] = average_dissipation_rate(t, grid, "implicit")
        curves[t.label] = data
    write = _output(cfg, tableaux)
    for label, data in curves.items():
        write(f"{label}_rate", list(data), *data.values())
    return curves
