"""Command line front end.

Subcommands::

    eerk catalog                      list methods and their parameters
    eerk analyze  --method SPEC ...   PSD/NPD classification + minor curves
    eerk rate     --method SPEC ...   average dissipation rate curves
    eerk converge [--config FILE]     error/order table against a reference
    eerk energy   [--config FILE]     energy series (opt. stage margins)

Method specs look like ``etd1``, ``eerk2:c2=0.5`` or
``eerk32:c2=0.75,c3=0.6``; abscissas accept decimals or fractions.  All
outputs are CSV.  Exit codes: 0 success, 2 configuration error (also a
z grid on which a diagonal coefficient of D(z) vanishes or, for analyze, a
minor leaves the float64 range), 3 divergence.
"""

from __future__ import annotations

import argparse
import sys

from eerk.bench import (
    BenchDivergence,
    ConfigError,
    load_config,
    run_analysis,
    run_convergence,
    run_energy,
    run_rate,
)
from eerk.dissipation import SingularDiagonalError
from eerk.tableaux import MethodError, catalog

_EXIT_CONFIG = 2
_EXIT_DIVERGENCE = 3

def _add_common(sub):
    sub.add_argument("--method", action="append", dest="method",
                     metavar="SPEC", help="method spec; repeatable")
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--out", help="output directory for CSV files")


def _add_problem_flags(sub):
    sub.add_argument("--tau", help="step size(s), comma separated")
    sub.add_argument("--kappa", help="stabilization parameter")
    sub.add_argument("--eps", help="interface width")
    sub.add_argument("--T", dest="T", help="final time")
    sub.add_argument("--m", help="interior mesh points")
    sub.add_argument("--h", help="mesh spacing (alternative to --m)")
    sub.add_argument("--ic", help="initial profile: sine | bumps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eerk",
        description="Exponential Runge-Kutta gradient-flow benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("catalog", help="list available methods")

    analyze = subs.add_parser("analyze", help="PSD/NPD classification")
    _add_common(analyze)
    analyze.add_argument("--grid", help="z grid spec (default: builtin union grid)")
    analyze.add_argument("--implicit", action="store_true",
                         help="analyze the pure-implicit variant")

    rate = subs.add_parser("rate", help="average dissipation rate curves")
    _add_common(rate)
    rate.add_argument("--grid", help="z grid spec")
    rate.add_argument("--implicit", action="store_true",
                      help="also emit the pure-implicit rate")

    converge = subs.add_parser("converge", help="convergence table vs reference")
    _add_common(converge)
    _add_problem_flags(converge)
    converge.add_argument("--ref-method", dest="ref_method", help="reference method spec")
    converge.add_argument("--ref-tau", dest="ref_tau", help="reference step size")

    energy = subs.add_parser("energy", help="energy dissipation run")
    _add_common(energy)
    _add_problem_flags(energy)
    energy.add_argument("--monitor", action="store_true",
                        help="record stage energy-law margins")
    return parser


def _overrides(args) -> dict:
    """Config overrides, as strings, from the flags given on the command
    line: repeated ``--method`` values joined by commas, switches ``on``."""
    out = {}
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None and value is not False:
            out[key] = ",".join(value) if key == "method" else "on" if value is True else value
    return out


def _cmd_catalog(_args) -> int:
    for name, params, text in catalog():
        sig = name if not params else f"{name}:{','.join(p + '=...' for p in params)}"
        print(f"{sig:24s} {text}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    for label, verdict in run_analysis(cfg).items():
        if verdict.witness is None:
            print(f"{label:28s} {verdict.verdict}")
        else:
            w = verdict.witness
            print(f"{label:28s} {verdict.verdict}  witness z={w.z:.6g} "
                  f"minor {w.minor_index} = {w.minor_value:.6g}")
    return 0


def _cmd_rate(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    curves = run_rate(cfg)
    grid = cfg.z_grid()
    for label, data in curves.items():
        tail = data["rate"][0]   # most negative grid point
        head = data["rate"][-1]  # closest to zero
        print(f"{label:28s} R({grid[-1]:.3g}) = {head:.6g}   R({grid[0]:.3g}) = {tail:.6g}")
    return 0


def _cmd_converge(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    for label, rows in run_convergence(cfg).items():
        print(f"# {label}")
        print(f"{'tau':>12s} {'error':>14s} {'order':>7s}")
        for row in rows:
            order = "-" if row.order is None else f"{row.order:.2f}"
            print(f"{row.tau:12.6g} {row.error:14.4e} {order:>7s}")
    return 0


def _cmd_energy(args) -> int:
    defaults = {"ic": "bumps", "tau": "0.1", "T": "160"}
    cfg = load_config(args.config, _overrides(args), defaults=defaults)
    reports = run_energy(cfg)
    diverged = False
    for label, report in reports.items():
        if report.diverged:
            diverged = True
            print(f"{label:28s} DIVERGED at step {report.diverged_step} "
                  f"(t = {report.diverged_step * report.tau:.6g})")
            continue
        line = (f"{label:28s} E(0) = {report.energies[0]:.6g}  "
                f"E({report.times[-1]:.6g}) = {report.energies[-1]:.6g}")
        if report.margins is not None:
            line += (f"  min margin = {float(report.margins.min()):.3e}"
                     f"  stage law {report.energy_law}")
        print(line)
    return _EXIT_DIVERGENCE if diverged else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "catalog": _cmd_catalog,
        "analyze": _cmd_analyze,
        "rate": _cmd_rate,
        "converge": _cmd_converge,
        "energy": _cmd_energy,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, MethodError, SingularDiagonalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except BenchDivergence as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return _EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
